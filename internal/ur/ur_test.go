package ur

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"webbase/internal/algebra"
	"webbase/internal/race"
	"webbase/internal/relation"
)

func TestHierarchyValidate(t *testing.T) {
	good := &Hierarchy{Root: Cat("UR",
		Rel("R", Attr("A"), Attr("B")),
		Cat("C", Rel("S", Attr("A"))),
	)}
	if err := good.Validate(); err != nil {
		t.Errorf("valid hierarchy rejected: %v", err)
	}
	bad := []*Hierarchy{
		{},                                    // no root
		{Root: Cat("UR", Attr("loose"))},      // attribute outside a relation
		{Root: Cat("UR", Rel("R", Rel("S")))}, // nested relations
		{Root: Cat("UR", Rel("R"), Rel("R"))}, // duplicate relation
		{Root: Cat("UR", Rel("R", Attr("A"), Attr("A")))}, // dup attr in relation
		{Root: Cat("UR", Rel("R", &Concept{Name: "A", Kind: Attribute, Children: []*Concept{Attr("B")}}))},
	}
	for i, h := range bad {
		if err := h.Validate(); err == nil {
			t.Errorf("bad hierarchy %d accepted", i)
		}
	}
}

func TestHierarchyQueries(t *testing.T) {
	h := &Hierarchy{Root: Cat("UR",
		Rel("R", Attr("A"), Attr("B")),
		Rel("S", Attr("A"), Attr("C")),
	)}
	if got := h.Relations(); !reflect.DeepEqual(got, []string{"R", "S"}) {
		t.Errorf("Relations = %v", got)
	}
	if got := h.AttrsOf("S"); !reflect.DeepEqual(got, []string{"A", "C"}) {
		t.Errorf("AttrsOf(S) = %v", got)
	}
	if got := h.AttrsOf("nope"); got != nil {
		t.Errorf("AttrsOf(nope) = %v", got)
	}
	if got := h.AllAttrs(); !reflect.DeepEqual(got, []string{"A", "B", "C"}) {
		t.Errorf("AllAttrs = %v", got)
	}
	s := h.String()
	if !strings.Contains(s, "[relation]") || !strings.Contains(s, "[attr]") {
		t.Errorf("rendering:\n%s", s)
	}
}

func TestCompatible(t *testing.T) {
	rules := []Rule{
		Plus("A"),
		Plus("B", "A"),
		Minus("C", "A", "B"),
		Plus("C", "A"),
	}
	cases := []struct {
		set  []string
		want bool
	}{
		{[]string{"A"}, true},
		{[]string{"B"}, false}, // B needs A
		{[]string{"A", "B"}, true},
		{[]string{"A", "C"}, true},       // C ⊕ A
		{[]string{"A", "B", "C"}, false}, // C ⊖ {A, B}
		{[]string{"D"}, false},           // no positive rule at all
	}
	for _, c := range cases {
		if got := Compatible(c.set, rules); got != c.want {
			t.Errorf("Compatible(%v) = %v, want %v", c.set, got, c.want)
		}
	}
}

func TestCompatibleMutualDependency(t *testing.T) {
	// A ⊕ B and B ⊕ A: only the pair is compatible; enumeration must
	// still find it (non-monotone compatibility).
	rules := []Rule{Plus("A", "B"), Plus("B", "A")}
	if Compatible([]string{"A"}, rules) || Compatible([]string{"B"}, rules) {
		t.Error("singletons should be incompatible")
	}
	if !Compatible([]string{"A", "B"}, rules) {
		t.Error("pair should be compatible")
	}
	objs := MaximalObjects([]string{"A", "B"}, rules)
	if len(objs) != 1 || !reflect.DeepEqual(objs[0], []string{"A", "B"}) {
		t.Errorf("maximal objects = %v", objs)
	}
}

// TestExample62MaximalObjects reproduces the paper's Example 6.2: the
// compatibility constraints generate exactly the five listed maximal
// objects, with TradeInValue excluded from all.
func TestExample62MaximalObjects(t *testing.T) {
	s, err := Example62()
	if err != nil {
		t.Fatal(err)
	}
	got := s.MaximalObjects()
	want := [][]string{
		{"Classifieds", "Loan", "FullCoverage", "RetailValue"},
		{"Classifieds", "Loan", "Liability", "RetailValue"},
		{"Dealers", "Lease", "FullCoverage", "RetailValue"},
		{"Dealers", "Loan", "FullCoverage", "RetailValue"},
		{"Dealers", "Loan", "Liability", "RetailValue"},
	}
	if len(got) != len(want) {
		t.Fatalf("maximal objects:\n%v\nwant:\n%v", got, want)
	}
	// Compare as sets of sets (both sorted lexicographically, but member
	// order inside differs: ours is alphabetical).
	toKey := func(ss [][]string) map[string]bool {
		m := make(map[string]bool)
		for _, s := range ss {
			sorted := append([]string(nil), s...)
			for i := 1; i < len(sorted); i++ {
				for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
					sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
				}
			}
			m[strings.Join(sorted, "+")] = true
		}
		return m
	}
	gk, wk := toKey(got), toKey(want)
	if !reflect.DeepEqual(gk, wk) {
		t.Errorf("objects =\n%v\nwant\n%v", gk, wk)
	}
	for _, o := range got {
		for _, r := range o {
			if r == "TradeInValue" {
				t.Error("TradeInValue must not appear in any maximal object")
			}
		}
	}
}

func TestNewSchemaValidation(t *testing.T) {
	h := &Hierarchy{Root: Cat("UR", Rel("R", Attr("A")))}
	if _, err := NewSchema("x", h, []Rule{Plus("Ghost")}, nil); err == nil {
		t.Error("rule targeting unknown relation accepted")
	}
	if _, err := NewSchema("x", h, []Rule{Plus("R", "Ghost")}, nil); err == nil {
		t.Error("rule referencing unknown relation accepted")
	}
	if _, err := NewSchema("x", h, nil, nil); err == nil {
		t.Error("schema with no compatible sets accepted")
	}
	if _, err := NewSchema("x", h, []Rule{Plus("R")}, nil); err != nil {
		t.Errorf("valid schema rejected: %v", err)
	}
}

// memLogical builds a small in-memory "logical layer" for planner tests:
// ads(Make, Price), book(Make, BBPrice), safety(Make, Safety).
func memLogical() (*Schema, *algebra.MemCatalog) {
	h := &Hierarchy{Root: Cat("UR",
		Rel("Ads", Attr("Make"), Attr("Price")),
		Rel("Book", Attr("Make"), Attr("BBPrice")),
		Rel("Safety", Attr("Make"), Attr("Safety")),
	)}
	rules := []Rule{
		Plus("Ads"),
		Plus("Book", "Ads"),
		Plus("Safety", "Ads"),
	}
	s, err := NewSchema("mini", h, rules, map[string]string{
		"Ads": "ads", "Book": "book", "Safety": "safety",
	})
	if err != nil {
		panic(err)
	}
	cat := algebra.NewMemCatalog()
	ads := relation.New("ads", relation.NewSchema("Make", "Price"))
	ads.MustInsert(relation.String("ford"), relation.Int(3000))
	ads.MustInsert(relation.String("jaguar"), relation.Int(16000))
	ads.MustInsert(relation.String("jaguar"), relation.Int(24000))
	cat.Add(ads, relation.NewAttrSet("Make"))
	book := relation.New("book", relation.NewSchema("Make", "BBPrice"))
	book.MustInsert(relation.String("ford"), relation.Int(3500))
	book.MustInsert(relation.String("jaguar"), relation.Int(20000))
	cat.Add(book, relation.NewAttrSet("Make"))
	safety := relation.New("safety", relation.NewSchema("Make", "Safety"))
	safety.MustInsert(relation.String("jaguar"), relation.String("good"))
	safety.MustInsert(relation.String("ford"), relation.String("average"))
	cat.Add(safety, relation.NewAttrSet("Make"))
	return s, cat
}

func TestPlanMinimalCover(t *testing.T) {
	s, _ := memLogical()
	q := Query{
		Output: []string{"Make", "Price"},
		Conditions: []algebra.Condition{
			{Attr: "Make", Op: algebra.EQ, Val: relation.String("jaguar")},
		},
	}
	plan, err := s.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Objects) != 1 {
		t.Fatalf("plan objects = %d", len(plan.Objects))
	}
	// Only Ads is needed: the cover must be minimal, not the whole
	// maximal object.
	if !reflect.DeepEqual(plan.Objects[0].Relations, []string{"Ads"}) {
		t.Errorf("cover = %v, want [Ads]", plan.Objects[0].Relations)
	}
	if !strings.Contains(plan.String(), "Ads") {
		t.Error("plan rendering")
	}
}

func TestPlanErrors(t *testing.T) {
	s, _ := memLogical()
	if _, err := s.Plan(Query{Output: []string{"Nope"}}); !errors.Is(err, ErrUnknownAttribute) {
		t.Errorf("err = %v", err)
	}
	if _, err := s.Plan(Query{}); err == nil {
		t.Error("empty output accepted")
	}
	if _, err := s.Plan(Query{Output: []string{"Make", "Make"}}); err == nil {
		t.Error("duplicate output attribute accepted")
	}
}

// carDeck is one query of each class of the benchmark's deck: a T1
// lookup, a T2 blue-book join and a T3 headline query.
var carDeck = []struct{ class, text string }{
	{"T1", "SELECT Make, Model, Year, Price WHERE Make='bmw' AND Model='325i'"},
	{"T2", "SELECT Make, Model, Year, Price, BBPrice WHERE Make='bmw' AND Model='325i' " +
		"AND Condition='good' AND Price < BBPrice"},
	{"T3", "SELECT Make, Model, Year, Price, BBPrice WHERE Make='bmw' AND Year >= 1993 " +
		"AND Safety='good' AND Condition='good' AND Price < BBPrice"},
}

// TestPlanShared: the plan names the logical relations more than one
// object reads — none when the objects are the two ad sources alone, the
// blue book once they join it, and reliability too once they join that.
func TestPlanShared(t *testing.T) {
	s, err := UsedCarUR()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{"T1": nil, "T2": {"bluePrice"}, "T3": {"bluePrice", "reliability"}}
	for _, c := range carDeck {
		q, err := ParseQuery(s, c.text)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := s.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Objects) != 2 || !reflect.DeepEqual(plan.Shared, want[c.class]) {
			t.Errorf("%s: %d objects sharing %v, want 2 sharing %v", c.class, len(plan.Objects), plan.Shared, want[c.class])
		}
	}
}

// TestPlanAllocs holds the cost of planning about 10% above what it is:
// the hierarchy is indexed once, in NewSchema, and a plan builds only the
// covers it keeps (a T1 plan made 333 allocations while it re-walked the
// hierarchy and built every candidate subset).
func TestPlanAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	s, err := UsedCarUR()
	if err != nil {
		t.Fatal(err)
	}
	ceiling := map[string]float64{"T1": 19, "T2": 29, "T3": 37}
	for _, c := range carDeck {
		q, err := ParseQuery(s, c.text)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(50, func() {
			if _, err := s.Plan(q); err != nil {
				t.Fatal(err)
			}
		})
		if got > ceiling[c.class] {
			t.Errorf("%s: planning allocates %.0f, ceiling %.0f", c.class, got, ceiling[c.class])
		}
	}
}

func TestEvalCrossRelationQuery(t *testing.T) {
	s, cat := memLogical()
	q := Query{
		Output: []string{"Make", "Price", "BBPrice"},
		Conditions: []algebra.Condition{
			{Attr: "Make", Op: algebra.EQ, Val: relation.String("jaguar")},
			{Attr: "Safety", Op: algebra.EQ, Val: relation.String("good")},
			{Attr: "Price", Op: algebra.LT, Attr2: "BBPrice"},
		},
	}
	res, err := s.Eval(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != 1 {
		t.Fatalf("rows = %d\n%s", res.Relation.Len(), res.Relation)
	}
	p, _ := res.Relation.Get(res.Relation.Tuples()[0], "Price")
	if p.IntVal() != 16000 {
		t.Errorf("price = %v", p)
	}
	if len(res.Skipped) != 0 {
		t.Errorf("skipped = %v", res.Skipped)
	}
}

func TestEvalSkipsUnboundObjects(t *testing.T) {
	// A query whose attributes live in a relation that cannot be bound
	// from the query: the object is skipped and reported.
	s, cat := memLogical()
	q := Query{Output: []string{"Make", "Price"}} // no Make constant at all
	_, err := s.Eval(q, cat)
	if err == nil {
		t.Error("expected failure when every object is unbindable")
	}
}

func TestUsedCarURConstruction(t *testing.T) {
	s, err := UsedCarUR()
	if err != nil {
		t.Fatal(err)
	}
	objs := s.MaximalObjects()
	if len(objs) != 2 {
		t.Fatalf("maximal objects = %v", objs)
	}
	// One object per ad source, each with every companion relation.
	for _, o := range objs {
		if len(o) != 5 {
			t.Errorf("object size = %d: %v", len(o), o)
		}
	}
	if s.LogicalName("Safety") != "reliability" || s.LogicalName("Unmapped") != "Unmapped" {
		t.Error("mapping wrong")
	}
	// The universal relation the user sees.
	attrs := s.Hierarchy.AllAttrs()
	for _, want := range []string{"Make", "Price", "BBPrice", "Safety", "Rate", "Reliability"} {
		found := false
		for _, a := range attrs {
			if a == want {
				found = true
			}
		}
		if !found {
			t.Errorf("UR missing attribute %q", want)
		}
	}
}

func TestParseQuery(t *testing.T) {
	s, _ := memLogical()
	q, err := ParseQuery(s, `SELECT Make, Price WHERE Make = 'jaguar' AND Price < BBPrice AND BBPrice >= 1000`)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q.Output, []string{"Make", "Price"}) {
		t.Errorf("output = %v", q.Output)
	}
	if len(q.Conditions) != 3 {
		t.Fatalf("conditions = %v", q.Conditions)
	}
	if q.Conditions[0].Val.Str() != "jaguar" || q.Conditions[0].Op != algebra.EQ {
		t.Errorf("cond0 = %v", q.Conditions[0])
	}
	if q.Conditions[1].Attr2 != "BBPrice" || q.Conditions[1].Op != algebra.LT {
		t.Errorf("cond1 = %v (attr-attr comparison expected)", q.Conditions[1])
	}
	if q.Conditions[2].Val.IntVal() != 1000 || q.Conditions[2].Op != algebra.GE {
		t.Errorf("cond2 = %v", q.Conditions[2])
	}
	// Case-insensitive keywords, no where clause.
	q2, err := ParseQuery(s, "select Make")
	if err != nil || len(q2.Output) != 1 || len(q2.Conditions) != 0 {
		t.Errorf("q2 = %v, %v", q2, err)
	}
	// Errors.
	for _, bad := range []string{"", "WHERE x=1", "SELECT", "SELECT a WHERE junk", "SELECT a WHERE x ~ 1"} {
		if _, err := ParseQuery(s, bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestParseQueryOrderByLimit(t *testing.T) {
	s, cat := memLogical()
	q, err := ParseQuery(s, "SELECT Make, Price WHERE Make = 'jaguar' ORDER BY Price DESC, Make LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.OrderBy) != 2 || !q.OrderBy[0].Desc || q.OrderBy[0].Attr != "Price" || q.OrderBy[1].Desc {
		t.Errorf("order by = %+v", q.OrderBy)
	}
	if q.Limit != 5 {
		t.Errorf("limit = %d", q.Limit)
	}
	// Eval applies ordering and limit.
	res, err := s.Eval(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	prices := res.Relation.Tuples()
	for i := 1; i < len(prices); i++ {
		a, _ := res.Relation.Get(prices[i-1], "Price")
		b, _ := res.Relation.Get(prices[i], "Price")
		if a.FloatVal() < b.FloatVal() {
			t.Fatalf("not descending: %v then %v", a, b)
		}
	}
	// ASC keyword accepted; bad clauses rejected.
	if _, err := ParseQuery(s, "SELECT Make ORDER BY Make ASC"); err != nil {
		t.Errorf("ASC rejected: %v", err)
	}
	for _, bad := range []string{
		"SELECT Make LIMIT x",
		"SELECT Make LIMIT -1",
		"SELECT Make ORDER BY",
		"SELECT Make ORDER BY Price SIDEWAYS",
	} {
		if _, err := ParseQuery(s, bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
	// Rendering includes the new clauses.
	str := q.String()
	if !strings.Contains(str, "ORDER BY Price DESC, Make") || !strings.Contains(str, "LIMIT 5") {
		t.Errorf("rendering: %s", str)
	}
}

// Malformed ORDER BY shapes must be rejected loudly, not silently
// repaired: a trailing comma would sort on fewer keys than written, and a
// duplicate key is a typo the stable sort would mask forever. Every parse
// error classifies as ErrBadQuery.
func TestParseQueryBadOrderBy(t *testing.T) {
	s, _ := memLogical()
	cases := []struct {
		name, query, wantMsg string
	}{
		{"trailing-comma", "SELECT Make ORDER BY Make,", "trailing comma"},
		{"double-comma", "SELECT Make ORDER BY Make, , Price", "trailing comma"},
		{"duplicate-key", "SELECT Make ORDER BY Price, Price", "duplicate ORDER BY key"},
		{"duplicate-key-desc", "SELECT Make ORDER BY Price DESC, Make, Price", "duplicate ORDER BY key"},
		{"duplicate-key-asc", "SELECT Make ORDER BY Price ASC, Price DESC", "duplicate ORDER BY key"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseQuery(s, tc.query)
			if err == nil {
				t.Fatalf("accepted %q", tc.query)
			}
			if !errors.Is(err, ErrBadQuery) {
				t.Errorf("error %v does not wrap ErrBadQuery", err)
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Errorf("error %q does not mention %q", err, tc.wantMsg)
			}
		})
	}
	// Distinct keys with mixed directions still parse.
	q, err := ParseQuery(s, "SELECT Make ORDER BY Price DESC, Make ASC")
	if err != nil || len(q.OrderBy) != 2 {
		t.Errorf("distinct keys rejected: %v %v", q.OrderBy, err)
	}
	// The whole parse-error taxonomy classifies as ErrBadQuery.
	for _, bad := range []string{"", "SELECT", "SELECT a LIMIT x", "SELECT a WHERE junk"} {
		if _, err := ParseQuery(s, bad); !errors.Is(err, ErrBadQuery) {
			t.Errorf("%q: error %v does not wrap ErrBadQuery", bad, err)
		}
	}
}

func TestQueryStringAndAttrs(t *testing.T) {
	q := Query{
		Output: []string{"Make", "Price"},
		Conditions: []algebra.Condition{
			{Attr: "Year", Op: algebra.GE, Val: relation.Int(1993)},
			{Attr: "Price", Op: algebra.LT, Attr2: "BBPrice"},
		},
	}
	s := q.String()
	if !strings.Contains(s, "SELECT Make, Price") || !strings.Contains(s, "Year ≥ 1993") {
		t.Errorf("rendering: %s", s)
	}
	attrs := q.Attrs()
	want := []string{"BBPrice", "Make", "Price", "Year"}
	if !reflect.DeepEqual(attrs, want) {
		t.Errorf("attrs = %v, want %v", attrs, want)
	}
}

func TestRuleString(t *testing.T) {
	if got := Plus("A", "B", "C").String(); got != "A ⊕ B, C" {
		t.Errorf("plus = %q", got)
	}
	if got := Minus("A", "B").String(); got != "A ⊖ B" {
		t.Errorf("minus = %q", got)
	}
	if got := Plus("A").String(); got != "A ⊕ ∅" {
		t.Errorf("empty = %q", got)
	}
}
