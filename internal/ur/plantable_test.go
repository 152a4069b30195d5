package ur

import (
	"context"
	"sync"
	"testing"

	"webbase/internal/algebra"
	"webbase/internal/logical"
	"webbase/internal/race"
	"webbase/internal/relation"
	"webbase/internal/vps"
)

// MaxShapes is the table's cap, for the external tests.
const MaxShapes = maxShapes

// bookQuery asks for the cars of one make priced under the blue book: a
// join of two relations fed by the make's constant.
func bookQuery(make string) Query {
	return Query{
		Output: []string{"Make", "Price", "BBPrice"},
		Conditions: []algebra.Condition{
			{Attr: "Make", Op: algebra.EQ, Val: relation.String(make)},
			{Attr: "Price", Op: algebra.LT, Attr2: "BBPrice"},
		},
	}
}

// answer evaluates q over cat and renders the answer.
func answer(t *testing.T, s *Schema, q Query, cat algebra.Catalog) string {
	t.Helper()
	res, err := s.Eval(context.Background(), q, cat, nil)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res.Relation.String()
}

// TestPlanTableCompilesAShapeOnce: queries that differ only in their
// constants, ORDER BY and LIMIT are one shape. The first compiles it and
// the others fill their constants into it, answering as a schema that
// never saw the shape does.
func TestPlanTableCompilesAShapeOnce(t *testing.T) {
	s, cat := memLogical()
	sorted := bookQuery("ford")
	sorted.OrderBy = []relation.SortKey{{Attr: "Price", Desc: true}}
	sorted.Limit = 1
	for _, q := range []Query{bookQuery("jaguar"), bookQuery("ford"), sorted, bookQuery("jaguar")} {
		fresh, freshCat := memLogical()
		if got, want := answer(t, s, q, cat), answer(t, fresh, q, freshCat); got != want {
			t.Errorf("%s: answer\n%s\nwhere a fresh schema answers\n%s", q, got, want)
		}
	}
	if n := s.plans.compiled.Load(); n != 1 {
		t.Errorf("one shape compiled %d times", n)
	}
}

// TestPlanTableShapeKey: queries that differ in any part of the shape
// (the output's order, a condition's attribute, operator or second
// attribute, a constant in place of an attribute, the conditions' order)
// each compile their own plan, the one Plan and Optimize build for them;
// ORDER BY and LIMIT make no new shape.
func TestPlanTableShapeKey(t *testing.T) {
	s, cat := memLogical()
	with := func(edit func(q *Query)) Query {
		q := bookQuery("jaguar")
		edit(&q)
		return q
	}
	queries := []Query{
		bookQuery("jaguar"),
		with(func(q *Query) { q.Output = []string{"Price", "Make", "BBPrice"} }),
		with(func(q *Query) { q.Conditions[0].Attr = "Price"; q.Conditions[0].Val = relation.Int(16000) }),
		with(func(q *Query) { q.Conditions[1].Op = algebra.LE }),
		with(func(q *Query) { q.Conditions[1].Attr2 = "Make" }),
		with(func(q *Query) { q.Conditions[1].Attr2, q.Conditions[1].Val = "", relation.Int(20000) }),
		with(func(q *Query) { q.Conditions[0], q.Conditions[1] = q.Conditions[1], q.Conditions[0] }),
		with(func(q *Query) { q.OrderBy, q.Limit = []relation.SortKey{{Attr: "Price"}}, 1 }),
	}
	for _, q := range queries {
		ref, refErr := s.Plan(q)
		got, err := s.Prepare(q, cat)
		if refErr != nil || err != nil {
			t.Fatalf("%s: Prepare fails with %v, Plan with %v", q, err, refErr)
		}
		for i, o := range got.Objects {
			if want := algebra.Optimize(ref.Objects[i].Expr, cat).String(); o.Expr.String() != want {
				t.Errorf("%s: object %d prepared as\n%s\nwant\n%s", q, i, o.Expr, want)
			}
		}
	}
	if n := s.plans.compiled.Load(); n != int64(len(queries)-1) {
		t.Errorf("%d queries of %d shapes compiled %d times", len(queries), len(queries)-1, n)
	}
}

// TestPlanTableKeysBySchemaAndCatalog: a shape compiled for one schema or
// one catalog is not served to another, even where the shape is the same.
// The second catalog holds other prices, and the second schema reads the
// ads from another relation of the same catalog; each answers as a schema
// that never saw the shape does, and not as the first.
func TestPlanTableKeysBySchemaAndCatalog(t *testing.T) {
	s, cat := memLogical()
	_, other := memLogical()
	cheap := relation.New("ads", relation.NewSchema("Make", "Price"))
	cheap.MustInsert(relation.String("jaguar"), relation.Int(1000))
	other.Add(cheap, relation.NewAttrSet("Make"))
	dealer := relation.New("dealerAds", relation.NewSchema("Make", "Price"))
	dealer.MustInsert(relation.String("jaguar"), relation.Int(19000))
	cat.Add(dealer, relation.NewAttrSet("Make"))
	second := func() *Schema {
		mapping := map[string]string{"Ads": "dealerAds", "Book": "book", "Safety": "safety"}
		s2, err := NewSchema("mini2", s.Hierarchy, s.Rules, mapping)
		if err != nil {
			t.Fatal(err)
		}
		return s2
	}
	fresh := func() *Schema { f, _ := memLogical(); return f }
	q := bookQuery("jaguar")

	first := answer(t, s, q, cat)
	s2 := second()
	for _, c := range []struct {
		name     string
		s, fresh *Schema
		cat      algebra.Catalog
	}{
		{"second catalog", s, fresh(), other},
		{"second schema", s2, second(), cat},
		{"first schema again", s, fresh(), cat},
	} {
		got, want := answer(t, c.s, q, c.cat), answer(t, c.fresh, q, c.cat)
		if got != want {
			t.Errorf("%s answers\n%s\nwhere a fresh schema answers\n%s", c.name, got, want)
		}
		if c.name != "first schema again" && got == first {
			t.Errorf("%s answers as the first schema over the first catalog:\n%s", c.name, got)
		}
	}
	if n := s.plans.compiled.Load(); n != 2 {
		t.Errorf("one shape over two catalogs compiled %d times, want 2", n)
	}
	if n := s2.plans.compiled.Load(); n != 1 {
		t.Errorf("the second schema compiled its shape %d times, want 1", n)
	}
}

// TestPlanTableBeyondCap: once a schema keeps maxShapes shapes, a new
// shape is compiled for each query that asks for it, answers as on a
// fresh schema, and takes nothing from the table; the kept shapes are
// still served.
func TestPlanTableBeyondCap(t *testing.T) {
	s, cat := memLogical()
	// Shape k: the make's constant and k repeated price conditions.
	filler := func(k int) Query {
		q := bookQuery("jaguar")
		for i := 0; i < k; i++ {
			q.Conditions = append(q.Conditions, algebra.Condition{Attr: "Price", Op: algebra.GT, Val: relation.Int(0)})
		}
		return q
	}
	for k := 0; k < maxShapes; k++ {
		if _, err := s.Prepare(filler(k), cat); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.plans.compiled.Load(); n != maxShapes {
		t.Fatalf("%d shapes compiled %d times", maxShapes, n)
	}
	beyond := filler(maxShapes)
	fresh, freshCat := memLogical()
	for run := 1; run <= 2; run++ {
		if got, want := answer(t, s, beyond, cat), answer(t, fresh, beyond, freshCat); got != want {
			t.Errorf("run %d beyond the cap: answer\n%s\nwhere a fresh schema answers\n%s", run, got, want)
		}
		if n := s.plans.compiled.Load(); n != maxShapes+int64(run) {
			t.Errorf("run %d beyond the cap: %d compilations, want %d", run, n, maxShapes+run)
		}
	}
	answer(t, s, filler(0), cat)
	if n := s.plans.compiled.Load(); n != maxShapes+2 {
		t.Errorf("a kept shape compiled again: %d compilations, want %d", n, maxShapes+2)
	}
}

// TestPlanTableRace: sixteen goroutines that ask for one new shape at
// once compile it once, and each answers its own constant.
func TestPlanTableRace(t *testing.T) {
	s, cat := memLogical()
	makes := []string{"jaguar", "ford"}
	want := make([]string, len(makes))
	for i, m := range makes {
		fresh, freshCat := memLogical()
		want[i] = answer(t, fresh, bookQuery(m), freshCat)
	}
	const n = 16
	got := make([]string, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			res, err := s.Eval(context.Background(), bookQuery(makes[g%len(makes)]), cat, nil)
			if errs[g] = err; err == nil {
				got[g] = res.Relation.String()
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if got[g] != want[g%len(makes)] {
			t.Errorf("goroutine %d answers\n%s\nwant\n%s", g, got[g], want[g%len(makes)])
		}
	}
	if c := s.plans.compiled.Load(); c != 1 {
		t.Errorf("%d racing queries of one shape compiled it %d times", n, c)
	}
}

// TestCompiledQueryAllocs holds what preparing a query of a shape already
// compiled costs, about 10% above what it is (8, 18 and 22 allocations; one
// more each while the table's key was made for every look-up): the plan,
// and a copy of each object's σ nodes and their ancestors with the query's
// constants in them. Planning alone costs more
// (TestPlanAllocs), and the optimization and binding analysis of every
// join came on top of it while each query compiled its own shape.
func TestCompiledQueryAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	s, err := UsedCarUR()
	if err != nil {
		t.Fatal(err)
	}
	reg, err := vps.StandardRegistry()
	if err != nil {
		t.Fatal(err)
	}
	cat, err := logical.StandardCatalog(reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ceiling := map[string]float64{"T1": 9, "T2": 20, "T3": 24}
	for _, c := range CarDeck {
		q, err := ParseQuery(s, c.Text)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Prepare(q, cat); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(50, func() {
			if _, err := s.Prepare(q, cat); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: preparing a compiled shape allocates %.0f", c.Class, got)
		if got > ceiling[c.Class] {
			t.Errorf("%s: preparing a compiled shape allocates %.0f, ceiling %.0f", c.Class, got, ceiling[c.Class])
		}
	}
}
