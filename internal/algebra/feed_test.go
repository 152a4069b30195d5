package algebra

import (
	"testing"

	"webbase/internal/relation"
)

// selective is a MemCatalog whose relations forward only the listed
// inputs, like a VPS relation whose handles' selection is narrower than
// its schema. MemCatalog itself filters on everything it is given, so the
// two agree whenever they are fed the same inputs.
type selective struct {
	*MemCatalog
	forward map[string]relation.AttrSet
}

func (c selective) Forwardable(name string) relation.AttrSet {
	if f, ok := c.forward[name]; ok {
		return f
	}
	return c.MemCatalog.Forwardable(name)
}

// feedCatalog: ads(Make, Year) is reachable with Make; book(Make, Year,
// BBPrice) needs Make and lists one price per year.
func feedCatalog(years ...int64) *MemCatalog {
	cat := NewMemCatalog()
	ads := relation.New("ads", relation.NewSchema("Make", "Year"))
	book := relation.New("book", relation.NewSchema("Make", "Year", "BBPrice"))
	for _, y := range years {
		ads.MustInsert(relation.String("ford"), relation.Int(y))
		book.MustInsert(relation.String("ford"), relation.Int(y), relation.Int(1000+y))
	}
	cat.Add(ads, relation.NewAttrSet("Make"))
	cat.Add(book, relation.NewAttrSet("Make"))
	return cat
}

func adsJoinBook() Expr {
	return &Join{Left: &Select{Input: scan("ads"), Cond: eqCond("Make", "ford")}, Right: scan("book")}
}

// TestDependentJoinFeedsOnlyForwardable: k values of a shared attribute the
// next operand cannot forward cost one population, not k; k values of one
// it can forward still cost k. The answer is the same either way.
func TestDependentJoinFeedsOnlyForwardable(t *testing.T) {
	years := []int64{1993, 1994, 1995, 1996}

	fed := feedCatalog(years...)
	want, err := Eval(adsJoinBook(), fed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := fed.PopulateCount("book"); got != len(years) {
		t.Errorf("Year forwardable: book populated %d times, want %d", got, len(years))
	}

	mem := feedCatalog(years...)
	got, err := Eval(adsJoinBook(), selective{mem, map[string]relation.AttrSet{"book": relation.NewAttrSet("Make")}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := mem.PopulateCount("book"); n != 1 {
		t.Errorf("Year not forwardable: book populated %d times, want 1", n)
	}
	if got.String() != want.String() {
		t.Errorf("answers differ\n--- fed per Year ---\n%s--- fed once ---\n%s", want, got)
	}
	if want.Len() != len(years) {
		t.Errorf("answer has %d tuples, want %d", want.Len(), len(years))
	}
}

// TestDependentJoinNullNeverJoins: a row with a null in a shared attribute
// joins nothing. When the attribute is fed the row causes no invocation;
// when it is not fed the natural join must not match null with null.
func TestDependentJoinNullNeverJoins(t *testing.T) {
	build := func() *MemCatalog {
		cat := feedCatalog(1994)
		cat.rels["ads"].data.MustInsert(relation.String("ford"), relation.Null())
		cat.rels["book"].data.MustInsert(relation.String("ford"), relation.Null(), relation.Int(7))
		return cat
	}
	for name, forward := range map[string]relation.AttrSet{
		"Year fed":     relation.NewAttrSet("Make", "Year"),
		"Year not fed": relation.NewAttrSet("Make"),
	} {
		mem := build()
		got, err := Eval(adsJoinBook(), selective{mem, map[string]relation.AttrSet{"book": forward}}, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Len() != 1 {
			t.Errorf("%s: %d tuples, want only the 1994 row\n%s", name, got.Len(), got)
		}
		if n := mem.PopulateCount("book"); n != 1 {
			t.Errorf("%s: book populated %d times, want 1 (the null row feeds nothing)", name, n)
		}
	}
	// A left side that is all nulls invokes nothing at all.
	mem := NewMemCatalog()
	ads := relation.New("ads", relation.NewSchema("Make", "Year"))
	ads.MustInsert(relation.String("ford"), relation.Null())
	mem.Add(ads, relation.NewAttrSet("Make"))
	mem.Add(relation.New("book", relation.NewSchema("Make", "Year", "BBPrice")), relation.NewAttrSet("Make"))
	got, err := Eval(adsJoinBook(), selective{mem, map[string]relation.AttrSet{"book": relation.NewAttrSet("Make")}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || mem.PopulateCount("book") != 0 {
		t.Errorf("all-null feed: %d tuples, %d populations, want 0 and 0", got.Len(), mem.PopulateCount("book"))
	}
}

// TestDependentJoinDeduplicatesASinglePart: a site that lists a row twice
// contributes it once, whether the join merged several parts or had only
// one to merge.
func TestDependentJoinDeduplicatesASinglePart(t *testing.T) {
	for name, years := range map[string][]int64{"one part": {1994}, "two parts": {1994, 1995}} {
		cat := feedCatalog(years...)
		cat.rels["book"].data.MustInsert(relation.String("ford"), relation.Int(1994), relation.Int(1000+1994))
		got, err := Eval(adsJoinBook(), cat, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Len() != len(years) {
			t.Errorf("%s: %d tuples, want %d\n%s", name, got.Len(), len(years), got)
		}
	}
}

// TestForwardableRecursion: ρ renames, σ and π pass through, binary
// operators union both sides.
func TestForwardableRecursion(t *testing.T) {
	cat := selective{carCatalog(), map[string]relation.AttrSet{
		"ads":      relation.NewAttrSet("Make", "Model"),
		"ads2":     relation.NewAttrSet("Make"),
		"bluebook": relation.NewAttrSet("Make", "Model", "Year"),
		"safety":   relation.NewAttrSet("Make"),
	}}
	cases := []struct {
		expr Expr
		want relation.AttrSet
	}{
		{scan("ads"), relation.NewAttrSet("Make", "Model")},
		{&Select{Input: scan("ads"), Cond: eqCond("Make", "ford")}, relation.NewAttrSet("Make", "Model")},
		{&Project{Input: scan("ads"), Attrs: []string{"Make", "Price"}}, relation.NewAttrSet("Make", "Model")},
		{&Rename{Input: scan("ads"), Mapping: map[string]string{"Model": "Trim"}}, relation.NewAttrSet("Make", "Trim")},
		{&Union{Left: scan("ads"), Right: scan("ads2")}, relation.NewAttrSet("Make", "Model")},
		{&RelaxedUnion{Left: scan("ads2"), Right: scan("ads")}, relation.NewAttrSet("Make", "Model")},
		{&Diff{Left: scan("ads2"), Right: scan("ads2")}, relation.NewAttrSet("Make")},
		{&Join{Left: scan("safety"), Right: scan("bluebook")}, relation.NewAttrSet("Make", "Model", "Year")},
		{scan("nosuch"), relation.NewAttrSet()},
	}
	for _, c := range cases {
		if got := Forwardable(c.expr, cat); !got.Equal(c.want) {
			t.Errorf("%s: forwardable %s, want %s", c.expr, got, c.want)
		}
	}
}
