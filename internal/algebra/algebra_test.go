package algebra

import (
	"context"
	"errors"
	"strings"
	"testing"

	"webbase/internal/relation"
)

// carCatalog builds an in-memory catalog mirroring the paper's used-car
// VPS: classifieds behind a Make binding, blue book behind
// {Make, Model, Condition}, safety behind {Make}.
func carCatalog() *MemCatalog {
	cat := NewMemCatalog()

	ads := relation.New("ads", relation.NewSchema("Make", "Model", "Year", "Price"))
	ads.MustInsert(relation.String("ford"), relation.String("escort"), relation.Int(1994), relation.Int(3000))
	ads.MustInsert(relation.String("ford"), relation.String("escort"), relation.Int(1996), relation.Int(5200))
	ads.MustInsert(relation.String("ford"), relation.String("taurus"), relation.Int(1995), relation.Int(6400))
	ads.MustInsert(relation.String("jaguar"), relation.String("xj6"), relation.Int(1994), relation.Int(16000))
	ads.MustInsert(relation.String("jaguar"), relation.String("xj6"), relation.Int(1996), relation.Int(24000))
	cat.Add(ads, relation.NewAttrSet("Make"))

	ads2 := relation.New("ads2", relation.NewSchema("Make", "Model", "Year", "Price"))
	ads2.MustInsert(relation.String("jaguar"), relation.String("xjs"), relation.Int(1995), relation.Int(21000))
	ads2.MustInsert(relation.String("ford"), relation.String("escort"), relation.Int(1994), relation.Int(3000)) // dup of ads row
	cat.Add(ads2, relation.NewAttrSet("Make"))

	bb := relation.New("bluebook", relation.NewSchema("Make", "Model", "Year", "BBPrice"))
	bb.MustInsert(relation.String("ford"), relation.String("escort"), relation.Int(1994), relation.Int(3500))
	bb.MustInsert(relation.String("ford"), relation.String("escort"), relation.Int(1996), relation.Int(5000))
	bb.MustInsert(relation.String("ford"), relation.String("taurus"), relation.Int(1995), relation.Int(6000))
	bb.MustInsert(relation.String("jaguar"), relation.String("xj6"), relation.Int(1994), relation.Int(17000))
	bb.MustInsert(relation.String("jaguar"), relation.String("xj6"), relation.Int(1996), relation.Int(23000))
	bb.MustInsert(relation.String("jaguar"), relation.String("xjs"), relation.Int(1995), relation.Int(20000))
	cat.Add(bb, relation.NewAttrSet("Make", "Model"))

	safety := relation.New("safety", relation.NewSchema("Make", "Safety"))
	safety.MustInsert(relation.String("ford"), relation.String("average"))
	safety.MustInsert(relation.String("jaguar"), relation.String("good"))
	cat.Add(safety, relation.NewAttrSet("Make"))

	free := relation.New("zips", relation.NewSchema("ZipCode", "Region"))
	free.MustInsert(relation.String("10001"), relation.String("manhattan"))
	cat.Add(free) // unrestricted

	return cat
}

func scan(name string) Expr { return &Scan{Relation: name} }

func eqCond(attr, val string) Condition {
	return Condition{Attr: attr, Op: EQ, Val: relation.String(val)}
}

func TestSchemas(t *testing.T) {
	cat := carCatalog()
	cases := []struct {
		expr Expr
		want relation.Schema
	}{
		{scan("ads"), relation.NewSchema("Make", "Model", "Year", "Price")},
		{&Select{Input: scan("ads"), Cond: eqCond("Make", "ford")}, relation.NewSchema("Make", "Model", "Year", "Price")},
		{&Project{Input: scan("ads"), Attrs: []string{"Make", "Price"}}, relation.NewSchema("Make", "Price")},
		{&Join{Left: scan("ads"), Right: scan("safety")}, relation.NewSchema("Make", "Model", "Year", "Price", "Safety")},
		{&Union{Left: scan("ads"), Right: scan("ads2")}, relation.NewSchema("Make", "Model", "Year", "Price")},
		{&Rename{Input: scan("safety"), Mapping: map[string]string{"Safety": "Rating"}}, relation.NewSchema("Make", "Rating")},
	}
	for _, c := range cases {
		got, err := c.expr.Schema(cat)
		if err != nil {
			t.Errorf("%s: %v", c.expr, err)
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("%s: schema %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestSchemaErrors(t *testing.T) {
	cat := carCatalog()
	bad := []Expr{
		scan("ghost"),
		&Select{Input: scan("ads"), Cond: eqCond("Nope", "x")},
		&Select{Input: scan("ads"), Cond: Condition{Attr: "Make", Op: EQ, Attr2: "Nope"}},
		&Project{Input: scan("ads"), Attrs: []string{"Nope"}},
		&Project{Input: scan("ads"), Attrs: []string{"Make", "Make"}},
		&Union{Left: scan("ads"), Right: scan("safety")},
		&Diff{Left: scan("ads"), Right: scan("safety")},
		&Rename{Input: scan("ads"), Mapping: map[string]string{"Make": "Model"}},
	}
	for _, e := range bad {
		if _, err := e.Schema(cat); err == nil {
			t.Errorf("%s: expected schema error", e)
		}
	}
}

func TestBindingsRules(t *testing.T) {
	cat := carCatalog()
	check := func(e Expr, want ...relation.AttrSet) {
		t.Helper()
		got, err := Bindings(e, cat)
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: bindings %v, want %v", e, got, want)
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Errorf("%s: binding[%d] = %s, want %s", e, i, got[i], want[i])
			}
		}
	}
	// Scan: the relation's own bindings.
	check(scan("bluebook"), relation.NewAttrSet("Make", "Model"))
	// σ with a constant discharges its attribute; π passes through.
	check(&Select{Input: scan("bluebook"), Cond: eqCond("Make", "ford")},
		relation.NewAttrSet("Model"))
	check(&Select{Input: scan("bluebook"),
		Cond: Condition{Attr: "Year", Op: GE, Val: relation.Int(1990)}},
		relation.NewAttrSet("Make", "Model"))
	check(&Project{Input: scan("bluebook"), Attrs: []string{"BBPrice"}},
		relation.NewAttrSet("Make", "Model"))
	// ∪: pairwise union. ads ∪ ads2 — both {Make} → {Make}.
	check(&Union{Left: scan("ads"), Right: scan("ads2")}, relation.NewAttrSet("Make"))
	// ⋈: M1 ∪ (M2 − attrs(E1)) and M2 ∪ (M1 − attrs(E2)). ads ⋈ bluebook:
	// {Make} ∪ ({Make,Model} − attrs(ads)) = {Make}; the other direction
	// gives {Make, Model}, which minimization drops as a superset.
	check(&Join{Left: scan("ads"), Right: scan("bluebook")}, relation.NewAttrSet("Make"))
	// ρ renames binding attributes.
	check(&Rename{Input: scan("safety"), Mapping: map[string]string{"Make": "Brand"}},
		relation.NewAttrSet("Brand"))
	// Unrestricted relation: no binding requirement.
	if got, _ := Bindings(scan("zips"), cat); len(got) != 0 {
		t.Errorf("zips bindings = %v, want none", got)
	}
}

func TestMinimize(t *testing.T) {
	in := []relation.AttrSet{
		relation.NewAttrSet("A", "B"),
		relation.NewAttrSet("A"),
		relation.NewAttrSet("A"), // duplicate
		relation.NewAttrSet("C"),
		relation.NewAttrSet("A", "C"), // superset of both A and C
	}
	got := Minimize(in)
	if len(got) != 2 {
		t.Fatalf("minimized to %v", got)
	}
	if !got[0].Equal(relation.NewAttrSet("A")) || !got[1].Equal(relation.NewAttrSet("C")) {
		t.Errorf("minimized = %v", got)
	}
}

func TestGreedyOrder(t *testing.T) {
	ops := []Operand{
		{Name: "bluebook", Schema: relation.NewSchema("Make", "Model", "BBPrice"),
			Bindings: []relation.AttrSet{relation.NewAttrSet("Make", "Model")}},
		{Name: "ads", Schema: relation.NewSchema("Make", "Model", "Price"),
			Bindings: []relation.AttrSet{relation.NewAttrSet("Make")}},
	}
	order, err := GreedyOrder(ops, relation.NewAttrSet("Make"))
	if err != nil {
		t.Fatal(err)
	}
	// ads must run first: bluebook needs Model, which only ads supplies.
	if order[0] != 1 || order[1] != 0 {
		t.Errorf("order = %v", order)
	}
	// With nothing bound there is no valid ordering.
	if _, err := GreedyOrder(ops, relation.NewAttrSet()); !errors.Is(err, ErrNoOrdering) {
		t.Errorf("err = %v", err)
	}
}

func TestGreedyOrderAlternativeBindings(t *testing.T) {
	// An operand with two alternative binding sets is executable through
	// either.
	ops := []Operand{
		{Name: "r", Schema: relation.NewSchema("A", "B"),
			Bindings: []relation.AttrSet{relation.NewAttrSet("A"), relation.NewAttrSet("B")}},
	}
	if _, err := GreedyOrder(ops, relation.NewAttrSet("B")); err != nil {
		t.Errorf("alternative binding not used: %v", err)
	}
}

func TestMinCostOrderPrefersConstantFedOperands(t *testing.T) {
	// Both executable immediately, but r2's binding is covered by the
	// query constants while r1 would need dependent feeding; min-cost
	// places r2 first. (Greedy, scanning in slice order, would not.)
	ops := []Operand{
		{Name: "r1", Schema: relation.NewSchema("A", "B"),
			Bindings: []relation.AttrSet{relation.NewAttrSet("B")}},
		{Name: "r2", Schema: relation.NewSchema("A", "B"),
			Bindings: []relation.AttrSet{relation.NewAttrSet("A")}},
	}
	bound := relation.NewAttrSet("A", "B")
	cost := func(op Operand, constants, available relation.AttrSet) float64 {
		if op.Name == "r2" {
			return 1
		}
		return 10
	}
	order, err := MinCostOrder(ops, bound, cost)
	if err != nil {
		t.Fatal(err)
	}
	if order[0] != 1 {
		t.Errorf("order = %v, want r2 first", order)
	}
	// Consistency: min-cost and greedy agree on existence.
	if _, err := MinCostOrder(ops, relation.NewAttrSet(), nil); !errors.Is(err, ErrNoOrdering) {
		t.Errorf("err = %v", err)
	}
}

func TestEvalScanAndSelectPushdown(t *testing.T) {
	cat := carCatalog()
	// σ[Make=ford](ads): the constant must be pushed into the scan, or the
	// binding-restricted Populate would fail.
	rel, err := Eval(&Select{Input: scan("ads"), Cond: eqCond("Make", "ford")}, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 3 {
		t.Errorf("fords = %d, want 3", rel.Len())
	}
	// Without any constant the scan cannot run.
	if _, err := Eval(scan("ads"), cat, nil); !errors.Is(err, ErrBindingUnsatisfied) {
		t.Errorf("err = %v", err)
	}
	// Unrestricted relations evaluate without bindings.
	if rel, err := Eval(scan("zips"), cat, nil); err != nil || rel.Len() != 1 {
		t.Errorf("zips: %v %v", rel, err)
	}
}

func TestEvalNumericSelect(t *testing.T) {
	cat := carCatalog()
	e := &Select{
		Input: &Select{Input: scan("ads"), Cond: eqCond("Make", "jaguar")},
		Cond:  Condition{Attr: "Year", Op: GE, Val: relation.Int(1995)},
	}
	rel, err := Eval(e, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 {
		t.Errorf("jaguars ≥1995 = %d, want 1", rel.Len())
	}
}

func TestEvalDependentJoin(t *testing.T) {
	cat := carCatalog()
	// ads ⋈ bluebook with Make bound: bluebook needs Model values from
	// ads tuples (sideways information passing).
	e := &Join{Left: scan("ads"), Right: scan("bluebook")}
	rel, err := Eval(e, cat, map[string]relation.Value{"Make": relation.String("ford")})
	if err != nil {
		t.Fatal(err)
	}
	// Every ford ad row joins its (Make, Model, Year) blue book row.
	if rel.Len() != 3 {
		t.Errorf("join rows = %d, want 3\n%s", rel.Len(), rel)
	}
	if !rel.Schema().EqualUnordered(relation.NewSchema("Make", "Model", "Year", "Price", "BBPrice")) {
		t.Errorf("schema = %v", rel.Schema())
	}
	// bluebook was populated once per distinct (Make, Model, Year) combo
	// of the ford ads (3 combos), not once per final row blowup and not
	// unfiltered.
	if got := cat.PopulateCount("bluebook"); got != 3 {
		t.Errorf("bluebook populated %d times, want 3 (per distinct shared combo)", got)
	}
}

func TestEvalAttrAttrCondition(t *testing.T) {
	cat := carCatalog()
	// Price < BBPrice over the dependent join — the paper's headline
	// condition.
	e := &Select{
		Input: &Join{Left: scan("ads"), Right: scan("bluebook")},
		Cond:  Condition{Attr: "Price", Op: LT, Attr2: "BBPrice"},
	}
	rel, err := Eval(e, cat, map[string]relation.Value{"Make": relation.String("jaguar")})
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range rel.Tuples() {
		p, _ := rel.Get(tp, "Price")
		bb, _ := rel.Get(tp, "BBPrice")
		if p.FloatVal() >= bb.FloatVal() {
			t.Fatalf("condition failed: %v", tp)
		}
	}
	if rel.Len() != 1 { // xj6/1994 16000<17000 qualifies; 1996 24000>23000 does not
		t.Errorf("rows = %d, want 1\n%s", rel.Len(), rel)
	}
}

func TestEvalThreeWayJoinOrdering(t *testing.T) {
	cat := carCatalog()
	// safety ⋈ bluebook ⋈ ads with only Make bound: valid order must put
	// ads (or safety) before bluebook.
	e := JoinAll(scan("bluebook"), scan("safety"), scan("ads"))
	rel, err := Eval(e, cat, map[string]relation.Value{"Make": relation.String("ford")})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 3 {
		t.Errorf("rows = %d, want 3", rel.Len())
	}
	for _, tp := range rel.Tuples() {
		s, _ := rel.Get(tp, "Safety")
		if s.Str() != "average" {
			t.Fatalf("ford safety = %v", s)
		}
	}
}

func TestEvalUnionDiffRename(t *testing.T) {
	cat := carCatalog()
	u := &Union{Left: scan("ads"), Right: scan("ads2")}
	rel, err := Eval(u, cat, map[string]relation.Value{"Make": relation.String("ford")})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 3 { // 3 ford rows in ads; ads2's ford row is a duplicate
		t.Errorf("union rows = %d, want 3\n%s", rel.Len(), rel)
	}
	d := &Diff{Left: scan("ads"), Right: scan("ads2")}
	rel, err = Eval(d, cat, map[string]relation.Value{"Make": relation.String("ford")})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Errorf("diff rows = %d, want 2", rel.Len())
	}
	// Rename: bound value arrives under the new name and must reach the
	// scan under the old one.
	r := &Rename{Input: scan("safety"), Mapping: map[string]string{"Make": "Brand"}}
	rel, err = Eval(r, cat, map[string]relation.Value{"Brand": relation.String("jaguar")})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || !rel.Schema().Has("Brand") {
		t.Errorf("rename eval: %v %v", rel.Schema(), rel.Len())
	}
}

// TestEvalJoinNoOrdering: a join no ordering can feed fails with
// ErrNoOrdering, and the error names each stuck operand, σ conditions and
// all.
func TestEvalJoinNoOrdering(t *testing.T) {
	cat := carCatalog()
	ads := &Select{Input: scan("ads"), Cond: Condition{Attr: "Year", Op: GE, Val: relation.Int(1995)}}
	e := &Join{Left: ads, Right: scan("bluebook")}
	_, err := EvalContext(context.Background(), e, cat, nil) // nothing bound: Make can never be supplied
	if !errors.Is(err, ErrNoOrdering) {
		t.Fatalf("err = %v", err)
	}
	for _, stuck := range []string{"σ[Year ≥ 1995](ads) needs {Make}", "bluebook needs {Make, Model}"} {
		if !strings.Contains(err.Error(), stuck) {
			t.Errorf("err = %v, want it to say %q", err, stuck)
		}
	}
}

func TestEvalCartesianJoin(t *testing.T) {
	cat := carCatalog()
	e := &Join{Left: scan("safety"), Right: scan("zips")}
	rel, err := Eval(e, cat, map[string]relation.Value{"Make": relation.String("ford")})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 { // 1 ford safety row × 1 zip row
		t.Errorf("rows = %d", rel.Len())
	}
}

func TestExprStrings(t *testing.T) {
	e := &Select{
		Input: &Project{Input: &Join{Left: scan("a"), Right: scan("b")}, Attrs: []string{"X"}},
		Cond:  Condition{Attr: "X", Op: LT, Val: relation.Int(5)},
	}
	s := e.String()
	for _, want := range []string{"σ[X < 5]", "π[X]", "(a ⋈ b)"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q: %s", want, s)
		}
	}
	r := &Rename{Input: scan("a"), Mapping: map[string]string{"X": "Y", "A": "B"}}
	if got := r.String(); got != "ρ[A→B, X→Y](a)" {
		t.Errorf("rename rendering = %q", got)
	}
	for op, want := range map[CmpOp]string{EQ: "=", NE: "≠", LT: "<", LE: "≤", GT: ">", GE: "≥"} {
		if op.String() != want {
			t.Errorf("op %d renders %q", op, op.String())
		}
	}
}

func TestJoinAllUnionAll(t *testing.T) {
	if JoinAll() != nil || UnionAll() != nil {
		t.Error("empty folds should be nil")
	}
	if got := JoinAll(scan("a")).String(); got != "a" {
		t.Errorf("single fold = %q", got)
	}
	if got := JoinAll(scan("a"), scan("b"), scan("c")).String(); got != "((a ⋈ b) ⋈ c)" {
		t.Errorf("fold = %q", got)
	}
	if got := UnionAll(scan("a"), scan("b")).String(); got != "(a ∪ b)" {
		t.Errorf("union fold = %q", got)
	}
}
