package algebra

import (
	"context"
	"errors"
	"sync"
	"testing"

	"webbase/internal/relation"
)

// parallelCtx returns a context carrying a pool wide enough that every
// union branch and dependent-join invocation the tests produce runs on
// its own goroutine.
func parallelCtx() context.Context {
	return WithPool(context.Background(), NewPool(8))
}

// TestParallelEvalMatchesSequential is the evaluator's golden test: with
// a pool attached, every expression must produce byte-identical output to
// the sequential evaluator — same tuples, same order.
func TestParallelEvalMatchesSequential(t *testing.T) {
	ford := map[string]relation.Value{"Make": relation.String("ford")}
	jaguar := map[string]relation.Value{"Make": relation.String("jaguar")}
	cases := []struct {
		name  string
		expr  Expr
		bound map[string]relation.Value
	}{
		{"union", &Union{Left: scan("ads"), Right: scan("ads2")}, ford},
		{"nested-union", UnionAll(scan("ads"), scan("ads2"), scan("ads")), jaguar},
		{"dependent-join", &Join{Left: scan("ads"), Right: scan("bluebook")}, ford},
		{"three-way-join", JoinAll(scan("bluebook"), scan("safety"), scan("ads")), ford},
		{"select-over-join", &Select{
			Input: &Join{Left: scan("ads"), Right: scan("bluebook")},
			Cond:  Condition{Attr: "Price", Op: LT, Attr2: "BBPrice"},
		}, jaguar},
		{"union-of-joins", &Union{
			Left:  &Join{Left: scan("ads"), Right: scan("bluebook")},
			Right: &Join{Left: scan("ads2"), Right: scan("bluebook")},
		}, ford},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seq, err := Eval(c.expr, carCatalog(), c.bound)
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			par, err := EvalContext(parallelCtx(), c.expr, carCatalog(), c.bound)
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			if seq.String() != par.String() {
				t.Errorf("parallel result differs from sequential\nsequential:\n%s\nparallel:\n%s", seq, par)
			}
		})
	}
}

// TestParallelEvalSharedCatalog hammers one MemCatalog with parallel
// evaluations from many goroutines; under -race this verifies the whole
// eval path (pool, populate counting, slot merging) is data-race free.
func TestParallelEvalSharedCatalog(t *testing.T) {
	cat := carCatalog()
	expr := &Union{
		Left:  &Join{Left: scan("ads"), Right: scan("bluebook")},
		Right: &Join{Left: scan("ads2"), Right: scan("bluebook")},
	}
	want, err := Eval(expr, cat, map[string]relation.Value{"Make": relation.String("ford")})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				got, err := EvalContext(parallelCtx(), expr, cat,
					map[string]relation.Value{"Make": relation.String("ford")})
				if err != nil {
					t.Error(err)
					return
				}
				if got.String() != want.String() {
					t.Errorf("concurrent eval diverged:\n%s", got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if cat.PopulateCount("bluebook") == 0 {
		t.Error("populate count not recorded")
	}
}

// TestParallelUnionErrorSurface pins the error semantics under the pool:
// when several branches fail, the leftmost branch's error is the one
// reported — the same error the sequential evaluator surfaces.
func TestParallelUnionErrorSurface(t *testing.T) {
	// ads without any binding fails with ErrBindingUnsatisfied; zips would
	// succeed. The union must report the left failure either way.
	expr := &Union{Left: scan("ads"), Right: scan("ads2")}
	for _, ctx := range []context.Context{context.Background(), parallelCtx()} {
		if _, err := EvalContext(ctx, expr, carCatalog(), nil); !errors.Is(err, ErrBindingUnsatisfied) {
			t.Errorf("err = %v, want ErrBindingUnsatisfied", err)
		}
	}
}

// TestParallelRelaxedUnionPartialAnswer checks the relaxed semantics
// survive parallel evaluation: a binding failure on one side yields the
// other side's partial answer, not an error.
func TestParallelRelaxedUnionPartialAnswer(t *testing.T) {
	expr := &RelaxedUnion{Left: scan("ads"), Right: scan("zipads")}
	cat := carCatalog()
	// zipads is reachable without bindings; ads needs Make.
	free := relation.New("zipads", relation.NewSchema("Make", "Model", "Year", "Price"))
	free.MustInsert(relation.String("honda"), relation.String("civic"), relation.Int(1997), relation.Int(9000))
	cat.Add(free)

	for _, ctx := range []context.Context{context.Background(), parallelCtx()} {
		rel, err := EvalContext(ctx, expr, cat, nil)
		if err != nil {
			t.Fatalf("relaxed union: %v", err)
		}
		if rel.Len() != 1 {
			t.Errorf("partial answer rows = %d, want 1 (zipads only)\n%s", rel.Len(), rel)
		}
	}
}

func TestEvalContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cat := carCatalog()
	_, err := EvalContext(ctx, scan("zips"), cat, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if cat.PopulateCount("zips") != 0 {
		t.Error("cancelled eval still touched the catalog")
	}
}

// cancellingCatalog cancels the query context after a fixed number of
// Populate calls — simulating a user abort mid-navigation.
type cancellingCatalog struct {
	*MemCatalog
	cancel context.CancelFunc
	after  int
	mu     sync.Mutex
	count  int
}

func (c *cancellingCatalog) Populate(ctx context.Context, name string, inputs map[string]relation.Value) (*relation.Relation, error) {
	c.mu.Lock()
	c.count++
	n := c.count
	c.mu.Unlock()
	rel, err := c.MemCatalog.Populate(ctx, name, inputs)
	if n >= c.after {
		c.cancel()
	}
	return rel, err
}

func (c *cancellingCatalog) Calls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

// TestEvalCancellationStopsFurtherAccess cancels mid-union and asserts
// the evaluator stops touching the catalog: branches not yet started see
// ctx.Err() instead of running.
func TestEvalCancellationStopsFurtherAccess(t *testing.T) {
	mem := NewMemCatalog()
	for _, name := range []string{"r1", "r2", "r3", "r4", "r5", "r6"} {
		rel := relation.New(name, relation.NewSchema("A"))
		rel.MustInsert(relation.String(name))
		mem.Add(rel) // unrestricted
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cat := &cancellingCatalog{MemCatalog: mem, cancel: cancel, after: 2}

	expr := UnionAll(scan("r1"), scan("r2"), scan("r3"), scan("r4"), scan("r5"), scan("r6"))
	_, err := EvalContext(ctx, expr, cat, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := cat.Calls(); got >= 6 {
		t.Errorf("catalog touched %d times after cancellation, want < 6", got)
	}
}

// TestForEachPoolSemantics exercises the pool primitive directly: all
// tasks run exactly once, slots are written at their own index, and the
// pool never exceeds its width in extra goroutines.
func TestForEachPoolSemantics(t *testing.T) {
	const n = 50
	ctx := WithPool(context.Background(), NewPool(4))
	var mu sync.Mutex
	ran := make([]bool, n)
	errs := ForEach(ctx, n, false, func(i int) error {
		mu.Lock()
		defer mu.Unlock()
		if ran[i] {
			t.Errorf("task %d ran twice", i)
		}
		ran[i] = true
		return nil
	})
	for i, err := range errs {
		if err != nil {
			t.Errorf("task %d: %v", i, err)
		}
		if !ran[i] {
			t.Errorf("task %d never ran", i)
		}
	}
}

// TestForEachSequentialShortCircuit pins the nil-pool contract: tasks run
// in index order and stopEarly prevents any task after the first failure.
func TestForEachSequentialShortCircuit(t *testing.T) {
	boom := errors.New("boom")
	var ran []int
	errs := ForEach(context.Background(), 5, true, func(i int) error {
		ran = append(ran, i)
		if i == 2 {
			return boom
		}
		return nil
	})
	if len(ran) != 3 || ran[0] != 0 || ran[1] != 1 || ran[2] != 2 {
		t.Errorf("ran = %v, want [0 1 2]", ran)
	}
	if !errors.Is(errs[2], boom) || errs[3] != nil || errs[4] != nil {
		t.Errorf("errs = %v", errs)
	}
}
