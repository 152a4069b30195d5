package algebra

import (
	"context"
	"strings"
	"testing"

	"webbase/internal/relation"
)

func TestRelaxedUnionSchemaAndString(t *testing.T) {
	cat := carCatalog()
	ru := &RelaxedUnion{Left: scan("ads"), Right: scan("ads2")}
	sch, err := ru.Schema(cat)
	if err != nil {
		t.Fatal(err)
	}
	if !sch.Equal(relation.NewSchema("Make", "Model", "Year", "Price")) {
		t.Errorf("schema = %v", sch)
	}
	if !strings.Contains(ru.String(), "∪ʳ") {
		t.Errorf("rendering: %s", ru)
	}
	// Mismatched schemas rejected.
	bad := &RelaxedUnion{Left: scan("ads"), Right: scan("safety")}
	if _, err := bad.Schema(cat); err == nil {
		t.Error("schema mismatch accepted")
	}
	// Fold helper.
	if RelaxedUnionAll() != nil {
		t.Error("empty fold should be nil")
	}
	if got := RelaxedUnionAll(scan("a"), scan("b"), scan("c")).String(); got != "((a ∪ʳ b) ∪ʳ c)" {
		t.Errorf("fold = %q", got)
	}
}

func TestRelaxedUnionBindingsAreAlternatives(t *testing.T) {
	cat := NewMemCatalog()
	a := relation.New("a", relation.NewSchema("X", "Y"))
	a.MustInsert(relation.Int(1), relation.Int(10))
	cat.Add(a, relation.NewAttrSet("X"))
	b := relation.New("b", relation.NewSchema("X", "Y"))
	b.MustInsert(relation.Int(2), relation.Int(20))
	cat.Add(b, relation.NewAttrSet("Y"))

	ru := &RelaxedUnion{Left: &Scan{Relation: "a"}, Right: &Scan{Relation: "b"}}
	bs, err := Bindings(ru, cat)
	if err != nil {
		t.Fatal(err)
	}
	// Alternatives, not the cross-union: {X} or {Y}.
	if len(bs) != 2 {
		t.Fatalf("bindings = %v", bs)
	}
	// Contrast: strict union requires both.
	u := &Union{Left: &Scan{Relation: "a"}, Right: &Scan{Relation: "b"}}
	ubs, err := Bindings(u, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(ubs) != 1 || !ubs[0].Equal(relation.NewAttrSet("X", "Y")) {
		t.Fatalf("strict union bindings = %v", ubs)
	}
}

func TestRelaxedUnionEvalSkipsUnboundSides(t *testing.T) {
	cat := NewMemCatalog()
	a := relation.New("a", relation.NewSchema("X", "Y"))
	a.MustInsert(relation.Int(1), relation.Int(10))
	cat.Add(a, relation.NewAttrSet("X"))
	b := relation.New("b", relation.NewSchema("X", "Y"))
	b.MustInsert(relation.Int(1), relation.Int(20))
	cat.Add(b, relation.NewAttrSet("Y"))

	ru := &RelaxedUnion{Left: &Scan{Relation: "a"}, Right: &Scan{Relation: "b"}}

	// X bound: only a answers.
	rel, err := Eval(context.Background(), ru, cat, map[string]relation.Value{"X": relation.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 {
		t.Errorf("rows = %d, want 1 (b skipped)", rel.Len())
	}
	// Both bound: both answer.
	rel, err = Eval(context.Background(), ru, cat, map[string]relation.Value{
		"X": relation.Int(1), "Y": relation.Int(10)})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 { // b's row has Y=20, filtered out by inputs
		t.Errorf("rows = %d", rel.Len())
	}
	// Nothing bound: both skipped → empty relation, not an error.
	rel, err = Eval(context.Background(), ru, cat, nil)
	if err != nil {
		t.Fatalf("relaxed union with no sides should be empty, got %v", err)
	}
	if rel.Len() != 0 {
		t.Errorf("rows = %d, want 0", rel.Len())
	}
}

func TestEvalUnknownExprAndSchemaErrors(t *testing.T) {
	cat := carCatalog()
	// σ over a vanished attribute after projection: schema error at eval.
	e := &Select{
		Input: &Project{Input: scan("ads"), Attrs: []string{"Make"}},
		Cond:  Condition{Attr: "Price", Op: LT, Val: relation.Int(5)},
	}
	if _, err := Eval(context.Background(), e, cat, map[string]relation.Value{"Make": relation.String("ford")}); err == nil {
		t.Error("expected schema error")
	}
	// Rename evaluation after binding through new name.
	r := &Rename{Input: scan("ads"), Mapping: map[string]string{"Price": "Cost"}}
	rel, err := Eval(context.Background(), r, cat, map[string]relation.Value{"Make": relation.String("ford")})
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Schema().Has("Cost") {
		t.Errorf("schema = %v", rel.Schema())
	}
	// PopulateCount of an unknown relation is 0.
	if cat.PopulateCount("ghost") != 0 {
		t.Error("ghost populate count")
	}
}

func TestBindingsErrorsPropagate(t *testing.T) {
	cat := carCatalog()
	bad := []Expr{
		&Select{Input: scan("ghost"), Cond: eqCond("A", "x")},
		&Project{Input: scan("ghost"), Attrs: []string{"A"}},
		&Rename{Input: scan("ghost"), Mapping: nil},
		&Union{Left: scan("ghost"), Right: scan("ads")},
		&Union{Left: scan("ads"), Right: scan("ghost")},
		&RelaxedUnion{Left: scan("ghost"), Right: scan("ads")},
		&RelaxedUnion{Left: scan("ads"), Right: scan("ghost")},
		&Join{Left: scan("ghost"), Right: scan("ads")},
		&Join{Left: scan("ads"), Right: scan("ghost")},
	}
	for _, e := range bad {
		if _, err := Bindings(e, cat); err == nil {
			t.Errorf("%T over ghost relation: expected error", e)
		}
	}
}

func TestEvalErrorPropagation(t *testing.T) {
	cat := carCatalog()
	jag := relation.String("jaguar")
	bound := map[string]relation.Value{"Make": jag}
	bad := []Expr{
		scan("ghost"),
		&Project{Input: scan("ghost"), Attrs: []string{"A"}},
		&Union{Left: scan("ghost"), Right: scan("ads")},
		&Union{Left: scan("ads"), Right: scan("ghost")},
		&Diff{Left: scan("ghost"), Right: scan("ads")},
		&Diff{Left: scan("ads"), Right: scan("ghost")},
		&Rename{Input: scan("ghost"), Mapping: nil},
		&Join{Left: scan("ghost"), Right: scan("ads")},
	}
	for _, e := range bad {
		if _, err := Eval(context.Background(), e, cat, bound); err == nil {
			t.Errorf("%s: expected error", e)
		}
	}
}
