package prune

import (
	"context"
	"reflect"
	"testing"

	"webbase/internal/relation"
)

func eq(attr string, v relation.Value) Cond { return Cond{Attr: attr, Op: EQ, Val: v} }
func cnd(a string, op Op, v relation.Value) Cond {
	return Cond{Attr: a, Op: op, Val: v}
}

func TestStaticallyUnsat(t *testing.T) {
	cases := []struct {
		name  string
		conds []Cond
		unsat bool
	}{
		{"empty", nil, false},
		{"single", []Cond{eq("Make", relation.String("ford"))}, false},
		{"eq-eq-conflict", []Cond{
			eq("Make", relation.String("ford")),
			eq("Make", relation.String("jaguar")),
		}, true},
		{"eq-eq-same", []Cond{
			eq("Make", relation.String("ford")),
			eq("Make", relation.String("Ford")), // Compare is case-insensitive
		}, false},
		{"eq-violates-bound", []Cond{
			eq("Year", relation.Int(1990)),
			cnd("Year", GE, relation.Int(1993)),
		}, true},
		{"eq-satisfies-bound", []Cond{
			eq("Year", relation.Int(1995)),
			cnd("Year", GE, relation.Int(1993)),
		}, false},
		{"empty-range", []Cond{
			cnd("Year", GE, relation.Int(1995)),
			cnd("Year", LE, relation.Int(1992)),
		}, true},
		{"point-range", []Cond{
			cnd("Year", GE, relation.Int(1993)),
			cnd("Year", LE, relation.Int(1993)),
		}, false},
		{"strict-point-range", []Cond{
			cnd("Year", GT, relation.Int(1993)),
			cnd("Year", LE, relation.Int(1993)),
		}, true},
		{"open-range", []Cond{
			cnd("Year", GT, relation.Int(1990)),
			cnd("Year", LT, relation.Int(1995)),
		}, false},
		{"two-lower-bounds", []Cond{
			cnd("Year", GE, relation.Int(1990)),
			cnd("Year", GT, relation.Int(1995)),
		}, false}, // conservatively consistent
		{"ne-vs-eq-conflict", []Cond{
			eq("Make", relation.String("ford")),
			cnd("Make", NE, relation.String("ford")),
		}, true},
		{"different-attrs", []Cond{
			eq("Make", relation.String("ford")),
			eq("Model", relation.String("taurus")),
		}, false},
		{"attr-attr-ignored", []Cond{
			{Attr: "Price", Op: LT, Attr2: "BBPrice"},
			{Attr: "Price", Op: GT, Attr2: "BBPrice"},
		}, false}, // attribute-to-attribute pairs are not analysed
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := NewState(tc.conds, 0).unsat; got != tc.unsat {
				t.Errorf("unsat = %v, want %v", got, tc.unsat)
			}
		})
	}
}

func TestIrrelevantInputs(t *testing.T) {
	st := NewState([]Cond{
		eq("Make", relation.String("jaguar")),
		cnd("Year", GE, relation.Int(1993)),
		{Attr: "Price", Op: LT, Attr2: "BBPrice"},
	}, 0)

	cases := []struct {
		name   string
		inputs map[string]relation.Value
		want   bool
	}{
		{"no-bindings", map[string]relation.Value{}, false},
		{"consistent", map[string]relation.Value{
			"Make": relation.String("jaguar"), "Year": relation.Int(1995),
		}, false},
		{"case-fold-consistent", map[string]relation.Value{
			"Make": relation.String("Jaguar"),
		}, false},
		{"violates-eq", map[string]relation.Value{
			"Make": relation.String("ford"),
		}, true},
		{"violates-bound", map[string]relation.Value{
			"Year": relation.Int(1990),
		}, true},
		{"unrelated-attr", map[string]relation.Value{
			"Model": relation.String("xj6"),
		}, false},
		{"null-never-violates", map[string]relation.Value{
			"Make": relation.Value{},
		}, false},
		{"attr-attr-one-side", map[string]relation.Value{
			"Price": relation.Int(5000),
		}, false},
		{"attr-attr-violated", map[string]relation.Value{
			"Price": relation.Int(5000), "BBPrice": relation.Int(4000),
		}, true},
		{"attr-attr-satisfied", map[string]relation.Value{
			"Price": relation.Int(5000), "BBPrice": relation.Int(6000),
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := st.IrrelevantInputs(tc.inputs); got != tc.want {
				t.Errorf("IrrelevantInputs(%v) = %v, want %v", tc.inputs, got, tc.want)
			}
		})
	}

	// A statically unsatisfiable clause makes every access irrelevant,
	// even with no bindings at all.
	unsat := NewState([]Cond{
		eq("Make", relation.String("ford")),
		eq("Make", relation.String("jaguar")),
	}, 0)
	if !unsat.IrrelevantInputs(nil) {
		t.Error("statically unsat state should make every access irrelevant")
	}
}

func TestIrrelevantTuple(t *testing.T) {
	st := NewState([]Cond{cnd("Year", GE, relation.Int(1993))}, 0)
	sch := relation.Schema{"Make", "Year"}
	old := relation.Tuple{relation.String("ford"), relation.Int(1990)}
	new_ := relation.Tuple{relation.String("ford"), relation.Int(1995)}
	if !st.IrrelevantTuple(sch, old) {
		t.Error("tuple violating Year >= 1993 should be irrelevant")
	}
	if st.IrrelevantTuple(sch, new_) {
		t.Error("tuple satisfying Year >= 1993 should stay relevant")
	}
	// Attribute absent from the schema: cannot prune.
	if st.IrrelevantTuple(relation.Schema{"Make"}, relation.Tuple{relation.String("ford")}) {
		t.Error("tuple without the conditioned attribute should stay relevant")
	}
}

func TestRestrict(t *testing.T) {
	st := NewState([]Cond{
		eq("Make", relation.String("jaguar")),
		cnd("Year", GE, relation.Int(1993)),
		{Attr: "Price", Op: LT, Attr2: "BBPrice"},
	}, 3)

	// All attributes present: the receiver itself comes back.
	if r := st.Restrict(relation.Schema{"Make", "Year", "Price", "BBPrice"}); r != st {
		t.Error("full-schema Restrict should return the receiver")
	}

	// A view exporting only Make: conditions on Year and Price/BBPrice
	// must not fire inside it.
	r := st.Restrict(relation.Schema{"Make", "Color"})
	if r == st {
		t.Fatal("restriction expected")
	}
	if r.IrrelevantInputs(map[string]relation.Value{"Year": relation.Int(1990)}) {
		t.Error("restricted state must not apply the dropped Year condition")
	}
	if !r.IrrelevantInputs(map[string]relation.Value{"Make": relation.String("ford")}) {
		t.Error("restricted state must keep the Make condition")
	}
	// Attr2 outside the schema drops the condition too.
	r2 := st.Restrict(relation.Schema{"Make", "Price"})
	if r2.IrrelevantInputs(map[string]relation.Value{
		"Price": relation.Int(9), "BBPrice": relation.Int(1),
	}) {
		t.Error("condition with Attr2 outside the schema must be dropped")
	}

	// Restricted states never re-arm the LIMIT early-exit but share the
	// decision counters with the root.
	if r.Limit() != 0 {
		t.Error("restricted state must not arm the limit early-exit")
	}
	r.Count(ReasonUnsatWhere)
	if st.Total() != 1 {
		t.Errorf("shared counter: Total() = %d, want 1", st.Total())
	}

	// Static unsatisfiability survives restriction.
	unsat := NewState([]Cond{
		eq("Make", relation.String("ford")),
		eq("Make", relation.String("jaguar")),
	}, 0)
	if !unsat.Restrict(relation.Schema{"Year"}).unsat {
		t.Error("static unsat verdict must survive restriction")
	}
}

func TestCountsAndReasons(t *testing.T) {
	st := NewState(nil, 0)
	st.Count(ReasonUnsatWhere)
	st.Count(ReasonUnsatWhere)
	st.Count(ReasonLimit)
	if st.Total() != 3 {
		t.Errorf("Total() = %d, want 3", st.Total())
	}
	want := map[string]int64{ReasonUnsatWhere: 2, ReasonLimit: 1}
	if got := st.Counts(); !reflect.DeepEqual(got, want) {
		t.Errorf("Counts() = %v, want %v", got, want)
	}
	// Counts returns a copy.
	st.Counts()[ReasonLimit] = 99
	if st.Counts()[ReasonLimit] != 1 {
		t.Error("Counts() must return a copy")
	}
}

func TestNilStateInert(t *testing.T) {
	var st *State
	if st.Limit() != 0 || st.Total() != 0 {
		t.Error("nil state must report nothing prunable")
	}
	if st.IrrelevantInputs(map[string]relation.Value{"A": relation.Int(1)}) {
		t.Error("nil state must never prune")
	}
	if st.IrrelevantTuple(relation.Schema{"A"}, relation.Tuple{relation.Int(1)}) {
		t.Error("nil state must never prune")
	}
	if st.Restrict(relation.Schema{"A"}) != nil {
		t.Error("nil Restrict must stay nil")
	}
	st.Count("x")
	if st.Counts() != nil {
		t.Error("nil state has no counters")
	}
	// Context round-trip.
	ctx := context.Background()
	if FromContext(ctx) != nil {
		t.Error("empty context carries no state")
	}
	real := NewState(nil, 0)
	if FromContext(ContextWith(ctx, real)) != real {
		t.Error("context round-trip failed")
	}
}
