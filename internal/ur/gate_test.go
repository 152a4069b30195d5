package ur

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"webbase/internal/algebra"
	"webbase/internal/prune"
	"webbase/internal/race"
	"webbase/internal/relation"
	"webbase/internal/web"
)

// keyRel is a one-column relation holding the given keys.
func keyRel(keys ...string) *relation.Relation {
	r := relation.New("", relation.NewSchema("K"))
	for _, k := range keys {
		r.MustInsert(relation.String(k))
	}
	return r
}

// limitGate is a sinkless gate over n anonymous objects, armed the way
// Eval arms it: with the prune state's LIMIT.
func limitGate(n int, st *prune.State) *streamGate {
	return newStreamGate(nil, &Plan{Objects: make([]PlanObject, n)}, st.Limit())
}

// TestStreamGateLimitPrefix: the LIMIT early-exit counts the distinct
// tuples of the merged plan-order prefix and nothing else.
func TestStreamGateLimitPrefix(t *testing.T) {
	st := prune.NewState(nil, 2)
	if st.Limit() != 2 {
		t.Fatalf("Limit() = %d, want the armed 2", st.Limit())
	}
	g := limitGate(4, st)
	if g.limitSatisfied() {
		t.Error("satisfied before any object finished")
	}

	// Object 1 finishing out of order must not count: the plan-order
	// prefix is still open at object 0.
	g.complete(1, keyRel("a", "b"), nil)
	if g.limitSatisfied() {
		t.Error("out-of-order completion must not satisfy the limit")
	}
	// Object 0 closes the prefix; its tuple plus object 1's two distinct
	// ones reach the limit (duplicates collapse).
	g.complete(0, keyRel("a"), nil)
	if !g.limitSatisfied() {
		t.Error("limit should be satisfied: prefix holds {a, b}")
	}
	if g.union.Len() != 2 {
		t.Errorf("merged prefix holds %d tuples, want 2", g.union.Len())
	}

	// A failed object advances the prefix without contributing, whether
	// it was skipped on binding grounds or degraded out of the answer.
	g2 := limitGate(4, prune.NewState(nil, 1))
	g2.complete(0, nil, algebra.ErrBindingUnsatisfied)
	g2.complete(1, keyRel("lost"), web.MarkOutage(errors.New("connection refused")))
	if g2.limitSatisfied() {
		t.Error("failed objects contribute nothing")
	}
	g2.complete(2, keyRel("x"), nil)
	if !g2.limitSatisfied() {
		t.Error("prefix {skip, outage, x} holds 1 distinct tuple")
	}

	// A second completion of the same index is ignored, merged or not.
	g2.complete(2, keyRel("y", "z"), nil)
	if g2.union.Len() != 1 {
		t.Errorf("re-completing a merged object changed the union: %d tuples", g2.union.Len())
	}
	g3 := limitGate(3, prune.NewState(nil, 2))
	g3.complete(1, keyRel("p"), nil)
	g3.complete(1, keyRel("q", "r"), nil)
	g3.complete(0, nil, nil)
	if g3.limitSatisfied() || g3.union.Len() != 1 {
		t.Errorf("re-completing a waiting object replaced it: %d tuples", g3.union.Len())
	}

	// Unarmed — LIMIT 0, or no prune state at all — never satisfies.
	for _, st := range []*prune.State{prune.NewState(nil, 0), nil} {
		g := limitGate(2, st)
		g.complete(0, keyRel("k"), nil)
		if g.limitSatisfied() {
			t.Error("unarmed gate never satisfies")
		}
	}
}

// overlapWorld is miniTwoObjectWorld with n tuples per object, the last
// of A's being the first of B's, so the answer holds 2n-1.
func overlapWorld(n int) (*Schema, *algebra.MemCatalog) {
	s, _ := miniTwoObjectWorld()
	cat := algebra.NewMemCatalog()
	for j, name := range []string{"a", "b"} {
		r := relation.New(name, relation.NewSchema("K", "V"))
		for i := 0; i < n; i++ {
			v := j*(n-1) + i
			r.MustInsert(relation.String(fmt.Sprintf("k%d", v)), relation.Int(int64(v)))
		}
		cat.Add(r, relation.NewAttrSet())
	}
	return s, cat
}

// TestStreamDeliveriesAreTheAnswer: the answer is materialised once. What
// a delivery carries is the stretch of Result.Relation its object added —
// the same tuples at the running offset, clipped so that appending to it
// cannot reach the next object's — not a second copy built beside it.
func TestStreamDeliveriesAreTheAnswer(t *testing.T) {
	s, cat := overlapWorld(3)
	var got []ObjectDelivery
	res, err := s.Eval(context.Background(), Query{Output: []string{"K", "V"}}, cat,
		func(d ObjectDelivery) { got = append(got, d) })
	if err != nil {
		t.Fatal(err)
	}
	all := res.Relation.Tuples()
	if len(got) != 2 || len(all) != 5 {
		t.Fatalf("%d deliveries, %d answer tuples; want 2 and 5", len(got), len(all))
	}
	off := 0
	for _, d := range got {
		if cap(d.Tuples) != len(d.Tuples) {
			t.Errorf("delivery %d: cap %d != len %d", d.Index, cap(d.Tuples), len(d.Tuples))
		}
		for k, tup := range d.Tuples {
			if &tup[0] != &all[off+k][0] {
				t.Errorf("delivery %d tuple %d is not answer tuple %d", d.Index, k, off+k)
			}
		}
		off += len(d.Tuples)
	}
	if off != len(all) {
		t.Errorf("deliveries carry %d tuples, the answer %d", off, len(all))
	}
	last := got[len(got)-1].Tuples
	if &last[0] != &all[len(all)-len(last)] {
		t.Error("the last delivery is not a sub-slice of the answer's tuple slice")
	}
}

// TestStreamSinkAllocs: handing the answer to a sink costs a delivery per
// object, not a copy of the answer.
func TestStreamSinkAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	s, cat := overlapWorld(200)
	q := Query{Output: []string{"K", "V"}}
	run := func(sink ObjectSink) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := s.Eval(context.Background(), q, cat, sink); err != nil {
				t.Fatal(err)
			}
		})
	}
	without := run(nil)
	with := run(func(ObjectDelivery) {})
	if with > without+4 {
		t.Errorf("Eval allocates %.0f with a sink, %.0f without: the sink costs a second answer", with, without)
	}
}

// cancelWorld has n singleton maximal objects R0..R(n-1) and a catalog in
// which populating r0 cancels the query and populating any other relation
// blocks until the query is cancelled.
func cancelWorld(n int, cancel context.CancelFunc) (*Schema, algebra.Catalog) {
	var rels []*Concept
	var rules []Rule
	mapping := make(map[string]string)
	mem := algebra.NewMemCatalog()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("R%d", i)
		rels = append(rels, Rel(name, Attr("K"), Attr("V")))
		rules = append(rules, Plus(name))
		for j := 0; j < i; j++ {
			rules = append(rules, Minus(name, fmt.Sprintf("R%d", j)))
		}
		mapping[name] = strings.ToLower(name)
		r := relation.New(mapping[name], relation.NewSchema("K", "V"))
		r.MustInsert(relation.String(name), relation.Int(int64(i)))
		mem.Add(r, relation.NewAttrSet())
	}
	s, err := NewSchema("cancel", &Hierarchy{Root: Cat("UR", rels...)}, rules, mapping)
	if err != nil {
		panic(err)
	}
	return s, &cancellingCatalog{MemCatalog: mem, cancel: cancel}
}

type cancellingCatalog struct {
	*algebra.MemCatalog
	cancel context.CancelFunc
}

func (c *cancellingCatalog) Populate(ctx context.Context, name string, inputs map[string]relation.Value) (*relation.Relation, error) {
	if name == "r0" {
		c.cancel()
		return c.MemCatalog.Populate(ctx, name, inputs)
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestStreamCancelBeforeLaterObjects: a query cancelled while its first
// object runs fails with the first unfinished object's context error —
// whether that object was started (and saw the cancellation itself) or
// never started at all, which is every later object at Workers 1 and the
// ones past the pool's width at Workers 8. The first object had finished,
// so a sink has seen exactly it.
func TestStreamCancelBeforeLaterObjects(t *testing.T) {
	for _, workers := range []int{1, 8} {
		for _, streamed := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/sink=%v", workers, streamed), func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				s, cat := cancelWorld(10, cancel)
				var got []ObjectDelivery
				var sink ObjectSink
				if streamed {
					sink = func(d ObjectDelivery) { got = append(got, d) }
				}
				ctx = algebra.WithPool(ctx, algebra.NewPool(workers))
				res, err := s.Eval(ctx, Query{Output: []string{"K", "V"}}, cat, sink)
				if res != nil || !errors.Is(err, context.Canceled) {
					t.Fatalf("res = %v, err = %v; want nil and context.Canceled", res, err)
				}
				if web.IsOutage(err) || web.IsDrift(err) {
					t.Errorf("cancellation classified as a site failure: %v", err)
				}
				if want := "ur: evaluating object {R1}: "; !strings.HasPrefix(err.Error(), want) {
					t.Errorf("err = %q, want prefix %q", err, want)
				}
				if workers == 1 && err.Error() != "ur: evaluating object {R1}: context canceled" {
					t.Errorf("err = %q: an object that never started carries the bare ctx.Err()", err)
				}
				if streamed && (len(got) != 1 || got[0].Index != 0 || len(got[0].Tuples) != 1) {
					t.Errorf("deliveries = %+v, want object 0's alone", got)
				}
			})
		}
	}
}
