package ur

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"webbase/internal/algebra"
	"webbase/internal/relation"
	"webbase/internal/web"
)

// bookWorld has n maximal objects {Book, Si}: n ad sources, of which a car
// ad comes from exactly one, and the one blue book every source consults.
func bookWorld(n int) (*Schema, *algebra.MemCatalog) {
	rels := []*Concept{Rel("Book", Attr("Make"), Attr("BBPrice"))}
	mapping := map[string]string{"Book": "book"}
	var rules []Rule
	mem := algebra.NewMemCatalog()
	book := relation.New("book", relation.NewSchema("Make", "BBPrice"))
	book.MustInsert(relation.String("jaguar"), relation.Int(20000))
	book.MustInsert(relation.String("ford"), relation.Int(3500))
	mem.Add(book, relation.NewAttrSet("Make"))
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("S%d", i)
		rels = append(rels, Rel(name, Attr("Make"), Attr("Price")))
		rules = append(rules, Plus(name), Plus("Book", name))
		for j := 0; j < i; j++ {
			rules = append(rules, Minus(name, fmt.Sprintf("S%d", j)))
		}
		mapping[name] = strings.ToLower(name)
		r := relation.New(mapping[name], relation.NewSchema("Make", "Price"))
		r.MustInsert(relation.String("jaguar"), relation.Int(int64(15000+i)))
		r.MustInsert(relation.String("ford"), relation.Int(int64(3000+i)))
		mem.Add(r, relation.NewAttrSet("Make"))
	}
	s, err := NewSchema("books", &Hierarchy{Root: Cat("UR", rels...)}, rules, mapping)
	if err != nil {
		panic(err)
	}
	return s, mem
}

func jaguarQuery(output ...string) Query {
	return Query{Output: output, Conditions: []algebra.Condition{
		{Attr: "Make", Op: algebra.EQ, Val: relation.String("jaguar")},
	}}
}

// recordingCatalog records every population it is asked for, in call
// order. It can fail the first population of one relation with a site
// outage, and hold every population of a relation until release closes.
type recordingCatalog struct {
	*algebra.MemCatalog
	failFirst string
	hold      string
	release   chan struct{}

	mu       sync.Mutex
	calls    []string
	returned []*relation.Relation
}

func (c *recordingCatalog) Populate(ctx context.Context, name string, inputs map[string]relation.Value) (*relation.Relation, error) {
	c.mu.Lock()
	c.calls = append(c.calls, sharedKey(name, inputs))
	first := name == c.failFirst && c.count(name) == 1
	c.mu.Unlock()
	if name == c.hold {
		<-c.release
	}
	if first {
		return nil, web.MarkOutage(&web.HostError{Host: name + ".example", Err: fmt.Errorf("connection refused")})
	}
	rel, err := c.MemCatalog.Populate(ctx, name, inputs)
	c.mu.Lock()
	c.returned = append(c.returned, rel)
	c.mu.Unlock()
	return rel, err
}

// count is how often name has been populated; c.mu must be held.
func (c *recordingCatalog) count(name string) int {
	n := 0
	for _, call := range c.calls {
		if strings.HasPrefix(call, fmt.Sprintf("%q", name)) {
			n++
		}
	}
	return n
}

func (c *recordingCatalog) populations(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count(name)
}

// outcome renders one object's result: its tuples, sorted, or the host
// that failed it.
func outcome(tuples []relation.Tuple, failedHost string) string {
	if failedHost != "" {
		return "failed at " + failedHost
	}
	keys := make([]string, len(tuples))
	for i, t := range tuples {
		keys[i] = t.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, " | ")
}

// TestSharedFailureIsNotKept: the first population of the blue book fails.
// The failure is not kept: the next object populates the book itself, the
// third reads what that population kept, and each object's outcome is the
// one it has when it reads the catalog alone.
func TestSharedFailureIsNotKept(t *testing.T) {
	s, mem := bookWorld(3)
	q := jaguarQuery("Make", "Price", "BBPrice")
	plan, err := s.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(plan.Shared, []string{"book"}) || len(plan.Objects) != 3 {
		t.Fatalf("plan shares %v over %d objects, want [book] over 3", plan.Shared, len(plan.Objects))
	}

	// Unshared: every object evaluated straight over the catalog, in plan
	// order.
	alone := &recordingCatalog{MemCatalog: mem, failFirst: "book"}
	var want []string
	for _, o := range plan.Objects {
		rel, err := algebra.Eval(algebra.Optimize(o.Expr, alone), alone, nil)
		if err != nil {
			want = append(want, outcome(nil, web.FailingHost(err)))
		} else {
			want = append(want, outcome(rel.Tuples(), ""))
		}
	}

	shared := &recordingCatalog{MemCatalog: mem, failFirst: "book"}
	var got []string
	res, err := s.EvalStream(context.Background(), q, shared, func(d ObjectDelivery) {
		host := ""
		if d.Failure != nil {
			host = d.Failure.Host
		}
		got = append(got, outcome(d.Tuples, host))
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Errorf("per-object outcomes differ from the unshared run\n got: %q\nwant: %q", got, want)
	}
	if want[0] != "failed at book.example" || strings.HasPrefix(want[1], "failed") {
		t.Fatalf("unshared outcomes %q: want the first object alone to fail", want)
	}
	if !res.Degradation.Degraded() || len(res.Degradation.Unavailable) != 1 {
		t.Errorf("degradation = %+v, want the first object unavailable", res.Degradation)
	}
	if a, b := alone.populations("book"), shared.populations("book"); a != 3 || b != 2 {
		t.Errorf("book populated %d times alone and %d shared, want 3 and 2", a, b)
	}
}

// TestSharedConcurrentReaders: eight readers of one population at once all
// get the same relation, it is populated once, and nothing mutates it —
// read straight through the sharing catalog, and by eight maximal objects
// joining it at Workers 8. When the population they wait for fails, only
// its own reader gets the error: one of the others populates again and the
// rest share that. Run it under -race.
func TestSharedConcurrentReaders(t *testing.T) {
	const n = 8
	for _, failFirst := range []bool{false, true} {
		t.Run(fmt.Sprintf("readers/failFirst=%v", failFirst), func(t *testing.T) {
			_, mem := bookWorld(1)
			inner := &recordingCatalog{MemCatalog: mem, hold: "book", release: make(chan struct{})}
			if failFirst {
				inner.failFirst = "book"
			}
			c := &sharedCatalog{Catalog: inner, shared: []string{"book"}}
			var started, done sync.WaitGroup
			got := make([]*relation.Relation, n)
			errs := make([]error, n)
			for i := 0; i < n; i++ {
				started.Add(1)
				done.Add(1)
				go func(i int) {
					defer done.Done()
					started.Done()
					got[i], errs[i] = c.Populate(context.Background(), "book",
						map[string]relation.Value{"Make": relation.String("jaguar")})
				}(i)
			}
			started.Wait()
			close(inner.release)
			done.Wait()
			wantErrs, populations := 0, 1
			if failFirst {
				wantErrs, populations = 1, 2
			}
			if p := inner.populations("book"); p != populations {
				t.Fatalf("book populated %d times for %d readers, want %d", p, n, populations)
			}
			kept, failed := inner.returned[0], 0
			for i, rel := range got {
				switch {
				case errs[i] != nil:
					failed++
				case rel != kept:
					t.Errorf("reader %d got %p, the kept population %p", i, rel, kept)
				}
			}
			if failed != wantErrs {
				t.Errorf("%d readers saw an error, want %d: the failed population's own reader alone", failed, wantErrs)
			}
			if kept.Len() != 1 || kept.Tuples()[0].Key() != "s:jaguar\x00i:20000" {
				t.Errorf("shared relation changed:\n%s", kept)
			}
		})
	}
	t.Run("objects", func(t *testing.T) {
		s, mem := bookWorld(n)
		inner := &recordingCatalog{MemCatalog: mem}
		ctx := algebra.WithPool(context.Background(), algebra.NewPool(n))
		res, err := s.EvalStream(ctx, jaguarQuery("Make", "Price", "BBPrice"), inner, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		if p := inner.populations("book"); p != 1 {
			t.Fatalf("book populated %d times for %d objects", p, n)
		}
		if res.Relation.Len() != n {
			t.Errorf("answer has %d tuples, want one per source:\n%s", res.Relation.Len(), res.Relation)
		}
		var book *relation.Relation
		for _, rel := range inner.returned {
			if rel.Name() == "book" {
				book = rel
			}
		}
		if book.Len() != 1 || book.Tuples()[0].Key() != "s:jaguar\x00i:20000" {
			t.Errorf("shared relation changed by its readers:\n%s", book)
		}
	})
}

// TestSharedWaitHonoursContext: a reader waiting on another's population
// returns its context's error at once when cancelled; the population goes
// on, and its relation still reaches the reader that stayed and is kept for
// the next.
func TestSharedWaitHonoursContext(t *testing.T) {
	_, mem := bookWorld(1)
	inner := &recordingCatalog{MemCatalog: mem, hold: "book", release: make(chan struct{})}
	c := &sharedCatalog{Catalog: inner, shared: []string{"book"}}
	jaguar := map[string]relation.Value{"Make": relation.String("jaguar")}
	type result struct {
		rel *relation.Relation
		err error
	}
	read := func(ctx context.Context, out chan<- result) {
		rel, err := c.Populate(ctx, "book", jaguar)
		out <- result{rel, err}
	}
	evaluator, stayed, gaveUp := make(chan result, 1), make(chan result, 1), make(chan result, 1)
	go read(context.Background(), evaluator)
	for inner.populations("book") == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go read(ctx, gaveUp)
	go read(context.Background(), stayed)
	time.Sleep(20 * time.Millisecond) // let both readers wait
	cancel()
	select {
	case r := <-gaveUp:
		if !errors.Is(r.err, context.Canceled) {
			t.Fatalf("cancelled reader got %v, want context.Canceled", r.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a cancelled reader kept waiting for the population")
	}
	close(inner.release)
	e, st := <-evaluator, <-stayed
	if e.err != nil || st.err != nil || st.rel != e.rel {
		t.Fatalf("evaluator got %p (%v), the reader that stayed %p (%v); want one relation", e.rel, e.err, st.rel, st.err)
	}
	go read(context.Background(), stayed)
	if later := <-stayed; later.rel != e.rel || inner.populations("book") != 1 {
		t.Errorf("a later reader got %p after %d populations, want the kept %p after 1", later.rel, inner.populations("book"), e.rel)
	}
}

// TestSharedNothingWithoutSharedRelation: a plan whose objects read
// disjoint relations wraps nothing — the catalog sees exactly the
// populations, in exactly the order, of each object evaluated straight
// over it.
func TestSharedNothingWithoutSharedRelation(t *testing.T) {
	s, mem := bookWorld(3)
	q := jaguarQuery("Make", "Price")
	plan, err := s.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Shared != nil || len(plan.Objects) != 3 {
		t.Fatalf("plan shares %v over %d objects, want nothing over 3", plan.Shared, len(plan.Objects))
	}
	alone := &recordingCatalog{MemCatalog: mem}
	for _, o := range plan.Objects {
		if _, err := algebra.Eval(algebra.Optimize(o.Expr, alone), alone, nil); err != nil {
			t.Fatal(err)
		}
	}
	through := &recordingCatalog{MemCatalog: mem}
	if _, err := s.EvalStream(context.Background(), q, through, nil, false); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(through.calls, alone.calls) {
		t.Errorf("populations differ from the objects' own\n got: %q\nwant: %q", through.calls, alone.calls)
	}
}
