package relation

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func carRel(t *testing.T) *Relation {
	t.Helper()
	r := New("cars", NewSchema("Make", "Model", "Year", "Price"))
	r.MustInsert(String("ford"), String("escort"), Int(1994), Int(3000))
	r.MustInsert(String("ford"), String("taurus"), Int(1996), Int(7000))
	r.MustInsert(String("jaguar"), String("xj6"), Int(1993), Int(15000))
	r.MustInsert(String("jaguar"), String("xj6"), Int(1995), Int(21000))
	return r
}

func TestInsertArity(t *testing.T) {
	r := New("r", NewSchema("A", "B"))
	if err := r.Insert(Tuple{Int(1)}); err == nil {
		t.Fatal("expected arity error")
	}
	if err := r.Insert(Tuple{Int(1), Int(2)}); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
}

// insertMap inserts a tuple given attribute → value assignments. Attributes
// missing from the map become null; unknown attributes are an error.
func (r *Relation) insertMap(m map[string]Value) error {
	t := make(Tuple, len(r.schema))
	for a, v := range m {
		i := r.schema.IndexOf(a)
		if i < 0 {
			return fmt.Errorf("relation %s: unknown attribute %q", r.name, a)
		}
		t[i] = v
	}
	r.tuples = append(r.tuples, t)
	return nil
}

func TestInsertMap(t *testing.T) {
	r := New("r", NewSchema("A", "B"))
	if err := r.insertMap(map[string]Value{"B": Int(2)}); err != nil {
		t.Fatal(err)
	}
	if got, _ := r.Get(r.Tuples()[0], "A"); !got.IsNull() {
		t.Errorf("missing attribute should be null, got %v", got)
	}
	if err := r.insertMap(map[string]Value{"Z": Int(1)}); err == nil {
		t.Error("expected error for unknown attribute")
	}
}

func TestNewSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate attribute")
		}
	}()
	NewSchema("A", "A")
}

func TestProject(t *testing.T) {
	r := carRel(t)
	p, err := r.Project("Make")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 {
		t.Errorf("projecting onto Make should dedupe to 2 tuples, got %d", p.Len())
	}
	if _, err := r.Project("Nope"); err == nil {
		t.Error("expected error projecting onto unknown attribute")
	}
}

// selectEq returns the tuples whose attr equals val. Selecting on an
// attribute absent from the schema yields an error — in the webbase this
// indicates a query attribute the site does not expose.
func (r *Relation) selectEq(attr string, val Value) (*Relation, error) {
	i := r.schema.IndexOf(attr)
	if i < 0 {
		return nil, fmt.Errorf("select: attribute %q not in schema %s of %s", attr, r.schema, r.name)
	}
	return r.Select(func(t Tuple) bool { return t[i].Equal(val) }), nil
}

func TestSelectEq(t *testing.T) {
	r := carRel(t)
	s, err := r.selectEq("Make", String("jaguar"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Errorf("got %d jaguars, want 2", s.Len())
	}
	if _, err := r.selectEq("Nope", Int(1)); err == nil {
		t.Error("expected error selecting on unknown attribute")
	}
}

func TestUnionAlignsSchemas(t *testing.T) {
	a := New("a", NewSchema("X", "Y"))
	a.MustInsert(Int(1), Int(2))
	b := New("b", NewSchema("Y", "X"))
	b.MustInsert(Int(2), Int(1)) // same tuple, permuted
	b.MustInsert(Int(9), Int(8))
	u, err := a.Union(b)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 2 {
		t.Errorf("union should dedupe permuted duplicates: got %d, want 2", u.Len())
	}
	c := New("c", NewSchema("X", "Z"))
	if _, err := a.Union(c); err == nil {
		t.Error("expected schema mismatch error")
	}
}

// TestUnionAllOnePassEqualsTheFold: one pass over many relations gives the
// tuples of the pairwise fold in the same first-occurrence order, skips
// the nil slots of branches that produced nothing, deduplicates a single
// relation too, and leaves its inputs alone.
func TestUnionAllOnePassEqualsTheFold(t *testing.T) {
	a := New("a", NewSchema("X", "Y"))
	a.MustInsert(Int(1), Int(2))
	a.MustInsert(Int(1), Int(2)) // duplicate within one input
	a.MustInsert(Int(3), Null())
	b := New("b", NewSchema("Y", "X"))
	b.MustInsert(Int(2), Int(1)) // a's first tuple, permuted
	b.MustInsert(Int(9), Int(8))
	c := New("c", NewSchema("X", "Y"))
	c.MustInsert(Int(8), Int(9)) // b's second tuple
	c.MustInsert(Int(3), Null())
	c.MustInsert(Float(3), Null()) // a float is not the int it equals

	got, err := UnionAll([]*Relation{nil, a, nil, b, c})
	if err != nil {
		t.Fatal(err)
	}
	fold, _ := a.Union(b)
	fold, _ = fold.Union(c)
	if got.String() != fold.String() {
		t.Errorf("one pass differs from the fold\n--- one pass ---\n%s--- fold ---\n%s", got, fold)
	}
	if got.Len() != 4 || !got.Schema().Equal(a.Schema()) {
		t.Errorf("union = %d tuples under %v, want 4 under %v", got.Len(), got.Schema(), a.Schema())
	}
	if a.Len() != 3 || b.Len() != 2 {
		t.Error("UnionAll mutated an input")
	}
	if one, _ := UnionAll([]*Relation{a}); one.Len() != 2 {
		t.Errorf("a single relation must be deduplicated: %d tuples", one.Len())
	}
	if none, err := UnionAll([]*Relation{nil, nil}); none != nil || err != nil {
		t.Errorf("no relation at all: %v, %v", none, err)
	}
	if _, err := UnionAll([]*Relation{a, New("z", NewSchema("X", "Z"))}); err == nil {
		t.Error("expected schema mismatch error")
	}
}

// TestMergeReturnsWhatEachRelationAdded: Add hands back exactly the
// tuples its relation contributed, as a clipped stretch of the union's own
// storage.
func TestMergeReturnsWhatEachRelationAdded(t *testing.T) {
	var m Merge
	if m.Len() != 0 || m.Relation() != nil {
		t.Fatal("zero Merge is not an empty union")
	}
	if fresh, err := m.Add(nil); fresh != nil || err != nil || m.Relation() != nil {
		t.Errorf("Add(nil) = %v, %v", fresh, err)
	}
	a := New("a", NewSchema("X", "Y"))
	a.MustInsert(Int(1), Int(2))
	a.MustInsert(Int(1), Int(2)) // duplicate within one input
	a.MustInsert(Int(3), Int(4))
	fresh, err := m.Add(a)
	if err != nil || len(fresh) != 2 || m.Len() != 2 {
		t.Fatalf("Add(a) = %v, %v; Len %d", fresh, err, m.Len())
	}

	// A column-permuted schema aligns: b's first tuple is a's, its second
	// is new and lands under the union's column order.
	b := New("b", NewSchema("Y", "X"))
	b.MustInsert(Int(2), Int(1))
	b.MustInsert(Int(9), Int(8))
	fresh, err = m.Add(b)
	if err != nil || len(fresh) != 1 || !fresh[0][0].Equal(Int(8)) || !fresh[0][1].Equal(Int(9)) {
		t.Fatalf("Add(b) = %v, %v; want the one tuple (8, 9)", fresh, err)
	}
	if !m.Relation().Schema().Equal(a.Schema()) {
		t.Errorf("union schema = %v, want the first relation's %v", m.Relation().Schema(), a.Schema())
	}

	// A mismatched attribute set errors and leaves the union unchanged.
	before := m.Relation().String()
	if fresh, err := m.Add(New("z", NewSchema("X", "Z"))); err == nil || fresh != nil {
		t.Errorf("Add of a mismatched schema = %v, %v; want an error", fresh, err)
	}
	if m.Len() != 3 || m.Relation().String() != before {
		t.Errorf("a failed Add changed the union:\n%s", m.Relation())
	}

	// Appending to a returned slice cannot reach the union's next tuple.
	if cap(fresh) != len(fresh) {
		t.Fatalf("returned slice has cap %d, len %d", cap(fresh), len(fresh))
	}
	c := New("c", NewSchema("X", "Y"))
	c.MustInsert(Int(5), Int(6))
	next, _ := m.Add(c)
	_ = append(fresh, Tuple{Int(0), Int(0)})
	if got := m.Relation().Tuples()[3]; len(next) != 1 || !got[0].Equal(Int(5)) || !got[1].Equal(Int(6)) {
		t.Errorf("union's fourth tuple = %v after an append to the third's slice, want (5, 6)", got)
	}
	if &next[0] != &m.Relation().Tuples()[3] {
		t.Error("Add returned a copy, not a stretch of the union's tuples")
	}
}

// TestKeysAppendWhatTheyReturn: the appended key bytes are the Key string,
// for every kind, so one buffer reused across tuples keys them as before.
func TestKeysAppendWhatTheyReturn(t *testing.T) {
	tup := Tuple{Null(), String("a\x00b"), Int(-7), Float(2.5), Bool(true), Bool(false), String("")}
	want := "n:\x00s:a\x00b\x00i:-7\x00f:2.5\x00b:1\x00b:0\x00s:"
	if tup.Key() != want {
		t.Errorf("Key = %q, want %q", tup.Key(), want)
	}
	buf := []byte("junk")
	if got := string(tup.appendKey(buf[:0])); got != want {
		t.Errorf("appendKey into a reused buffer = %q", got)
	}
}

func TestDiff(t *testing.T) {
	a := New("a", NewSchema("X"))
	a.MustInsert(Int(1))
	a.MustInsert(Int(2))
	b := New("b", NewSchema("X"))
	b.MustInsert(Int(2))
	d, err := a.Diff(b)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 || !d.Tuples()[0][0].Equal(Int(1)) {
		t.Errorf("diff = %v, want [1]", d.Tuples())
	}
}

func TestNaturalJoin(t *testing.T) {
	cars := carRel(t)
	safety := New("safety", NewSchema("Make", "Model", "Safety"))
	safety.MustInsert(String("jaguar"), String("xj6"), String("good"))
	j := cars.NaturalJoin(safety)
	if j.Len() != 2 {
		t.Fatalf("join produced %d tuples, want 2", j.Len())
	}
	wantSchema := NewSchema("Make", "Model", "Year", "Price", "Safety")
	if !j.Schema().Equal(wantSchema) {
		t.Errorf("join schema = %v, want %v", j.Schema(), wantSchema)
	}
}

func TestNaturalJoinNoCommonIsProduct(t *testing.T) {
	a := New("a", NewSchema("X"))
	a.MustInsert(Int(1))
	a.MustInsert(Int(2))
	b := New("b", NewSchema("Y"))
	b.MustInsert(Int(10))
	b.MustInsert(Int(20))
	b.MustInsert(Int(30))
	if got := a.NaturalJoin(b).Len(); got != 6 {
		t.Errorf("cartesian product size = %d, want 6", got)
	}
}

func TestDistinctAndSort(t *testing.T) {
	r := New("r", NewSchema("A", "B"))
	r.MustInsert(Int(2), String("b"))
	r.MustInsert(Int(1), String("a"))
	r.MustInsert(Int(2), String("b"))
	d := r.Distinct()
	if d.Len() != 2 {
		t.Errorf("distinct = %d, want 2", d.Len())
	}
	s := d.SortBy("A")
	if !s.Tuples()[0][0].Equal(Int(1)) {
		t.Error("sort by A should place 1 first")
	}
	// Sorting by an unknown attribute must not panic.
	_ = d.SortBy("Nope")
}

func TestSortKeysAndLimit(t *testing.T) {
	r := New("r", NewSchema("A", "B"))
	r.MustInsert(Int(1), String("x"))
	r.MustInsert(Int(3), String("y"))
	r.MustInsert(Int(2), String("x"))
	s := r.SortKeys(SortKey{Attr: "A", Desc: true})
	if !s.Tuples()[0][0].Equal(Int(3)) || !s.Tuples()[2][0].Equal(Int(1)) {
		t.Errorf("desc sort: %v", s.Tuples())
	}
	// Secondary key applies after ties in the first.
	s2 := r.SortKeys(SortKey{Attr: "B"}, SortKey{Attr: "A", Desc: true})
	if !s2.Tuples()[0][0].Equal(Int(2)) { // (x,2) before (x,1) on desc A
		t.Errorf("multi-key sort: %v", s2.Tuples())
	}
	// Unknown key ignored, no panic.
	_ = r.SortKeys(SortKey{Attr: "Nope"})

	l := r.Limit(2)
	if l.Len() != 2 {
		t.Errorf("limit = %d", l.Len())
	}
	if r.Limit(0).Len() != 3 || r.Limit(99).Len() != 3 {
		t.Error("limit edge cases")
	}
}

func TestRename(t *testing.T) {
	r := carRel(t)
	n := r.Rename("autos", map[string]string{"Price": "Cost"})
	if n.Name() != "autos" || !n.Schema().Has("Cost") || n.Schema().Has("Price") {
		t.Errorf("rename failed: %v %v", n.Name(), n.Schema())
	}
	// Original untouched.
	if !r.Schema().Has("Price") {
		t.Error("rename mutated the source relation")
	}
}

func TestStringRendering(t *testing.T) {
	r := carRel(t)
	s := r.String()
	for _, want := range []string{"cars:", "Make", "jaguar", "15000"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestSchemaOps(t *testing.T) {
	a := NewSchema("A", "B", "C")
	b := NewSchema("B", "D")
	if got := a.Intersect(b); !got.Equal(NewSchema("B")) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Union(b); !got.Equal(NewSchema("A", "B", "C", "D")) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Minus(b); !got.Equal(NewSchema("A", "C")) {
		t.Errorf("Minus = %v", got)
	}
	if !a.ContainsAll(NewSchema("A", "C")) || a.ContainsAll(b) {
		t.Error("ContainsAll wrong")
	}
	if !a.EqualUnordered(NewSchema("C", "B", "A")) {
		t.Error("EqualUnordered should ignore order")
	}
}

func TestAttrSetOps(t *testing.T) {
	s := NewAttrSet("Make", "Model")
	u := s.Union(NewAttrSet("Year"))
	if !u.Equal(NewAttrSet("Make", "Model", "Year")) {
		t.Errorf("Union = %v", u)
	}
	if !s.SubsetOf(u) || u.SubsetOf(s) {
		t.Error("SubsetOf wrong")
	}
	i := u.Intersect(NewAttrSet("Year", "Price"))
	if !i.Equal(NewAttrSet("Year")) {
		t.Errorf("Intersect = %v", i)
	}
	m := u.Minus(s)
	if !m.Equal(NewAttrSet("Year")) {
		t.Errorf("Minus = %v", m)
	}
	if s.String() != "{Make, Model}" {
		t.Errorf("String = %q", s.String())
	}
	if s.Key() == u.Key() {
		t.Error("distinct sets must have distinct keys")
	}
}

// genRel generates a small random relation over schema (A, B) for property
// tests.
type genRel struct{ R *Relation }

func (genRel) Generate(r *rand.Rand, _ int) reflect.Value {
	rel := New("g", NewSchema("A", "B"))
	n := r.Intn(8)
	for i := 0; i < n; i++ {
		rel.MustInsert(Int(int64(r.Intn(4))), Int(int64(r.Intn(4))))
	}
	return reflect.ValueOf(genRel{rel})
}

// Property: union is commutative and idempotent on tuple sets.
func TestUnionProperties(t *testing.T) {
	comm := func(a, b genRel) bool {
		ab, err1 := a.R.Union(b.R)
		ba, err2 := b.R.Union(a.R)
		if err1 != nil || err2 != nil {
			return false
		}
		return sameTupleSet(ab, ba)
	}
	if err := quick.Check(comm, nil); err != nil {
		t.Error(err)
	}
	idem := func(a genRel) bool {
		aa, err := a.R.Union(a.R)
		if err != nil {
			return false
		}
		return sameTupleSet(aa, a.R.Distinct())
	}
	if err := quick.Check(idem, nil); err != nil {
		t.Error(err)
	}
}

// Property: r − r is empty, and (r − s) ⊆ r.
func TestDiffProperties(t *testing.T) {
	selfEmpty := func(a genRel) bool {
		d, err := a.R.Diff(a.R)
		return err == nil && d.Len() == 0
	}
	if err := quick.Check(selfEmpty, nil); err != nil {
		t.Error(err)
	}
	subset := func(a, b genRel) bool {
		d, err := a.R.Diff(b.R)
		if err != nil {
			return false
		}
		in := make(map[string]bool)
		for _, t := range a.R.Tuples() {
			in[t.Key()] = true
		}
		for _, t := range d.Tuples() {
			if !in[t.Key()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(subset, nil); err != nil {
		t.Error(err)
	}
}

// Property: natural join with a relation sharing all attributes equals
// intersection of tuple sets (as sets).
func TestJoinSelfSchemaIsIntersection(t *testing.T) {
	prop := func(a, b genRel) bool {
		j := a.R.NaturalJoin(b.R).Distinct()
		in := make(map[string]bool)
		for _, t := range b.R.Tuples() {
			in[t.Key()] = true
		}
		want := a.R.Select(func(t Tuple) bool { return in[t.Key()] }).Distinct()
		return sameTupleSet(j, want)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func sameTupleSet(a, b *Relation) bool {
	if !a.Schema().EqualUnordered(b.Schema()) {
		return false
	}
	d1, err1 := a.Diff(b)
	d2, err2 := b.Diff(a)
	return err1 == nil && err2 == nil && d1.Len() == 0 && d2.Len() == 0
}

// TestOperatorsShareTuples: the operators that keep whole tuples hand
// their input's tuples on instead of copying them (a tuple is immutable
// once inserted), with the same content as before, and nothing done to the
// output afterwards — sorting it, cutting it short — reaches the input:
// the output has its own tuple list, only the tuples are shared.
func TestOperatorsShareTuples(t *testing.T) {
	build := func() *Relation {
		r := New("r", NewSchema("A", "B"))
		r.MustInsert(Int(3), String("c"))
		r.MustInsert(Int(1), String("a"))
		r.MustInsert(Int(3), String("c")) // duplicate
		r.MustInsert(Int(2), String("b"))
		return r
	}
	other := New("o", NewSchema("B", "A"))
	other.MustInsert(String("a"), Int(1))

	ops := []struct {
		name string
		run  func(*Relation) *Relation
		want [][2]string // content, in order
	}{
		{"Select", func(r *Relation) *Relation {
			return r.Select(func(tu Tuple) bool { return tu[0].IntVal() >= 2 })
		}, [][2]string{{"3", "c"}, {"3", "c"}, {"2", "b"}}},
		{"Distinct", (*Relation).Distinct, [][2]string{{"3", "c"}, {"1", "a"}, {"2", "b"}}},
		{"Diff", func(r *Relation) *Relation {
			d, err := r.Diff(other)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}, [][2]string{{"3", "c"}, {"3", "c"}, {"2", "b"}}},
		{"Rename", func(r *Relation) *Relation { return r.Rename("q", map[string]string{"A": "X"}) },
			[][2]string{{"3", "c"}, {"1", "a"}, {"3", "c"}, {"2", "b"}}},
		{"SortBy", func(r *Relation) *Relation { return r.SortBy("A") },
			[][2]string{{"1", "a"}, {"2", "b"}, {"3", "c"}, {"3", "c"}}},
		{"SortKeys", func(r *Relation) *Relation { return r.SortKeys(SortKey{Attr: "A", Desc: true}) },
			[][2]string{{"3", "c"}, {"3", "c"}, {"2", "b"}, {"1", "a"}}},
		{"Limit", func(r *Relation) *Relation { return r.Limit(2) }, [][2]string{{"3", "c"}, {"1", "a"}}},
	}
	for _, op := range ops {
		r := build()
		before := r.String()
		mine := make(map[*Value]bool) // the first cell of each input tuple
		for _, tu := range r.Tuples() {
			mine[&tu[0]] = true
		}
		out := op.run(r)
		if out.Len() != len(op.want) {
			t.Errorf("%s: %d tuples, want %d\n%s", op.name, out.Len(), len(op.want), out)
			continue
		}
		for i, tu := range out.Tuples() {
			if got := [2]string{tu[0].String(), tu[1].String()}; got != op.want[i] {
				t.Errorf("%s: tuple %d = %v, want %v", op.name, i, got, op.want[i])
			}
			if !mine[&tu[0]] {
				t.Errorf("%s: tuple %d is a copy, not the input's tuple", op.name, i)
			}
		}
		// The output has its own list: reordering it in place, as SortBy
		// does to its copy, must not reorder the input, and appending to a
		// prefix of it must not write into the input's list (it would if
		// Limit returned a window).
		sort.SliceStable(out.tuples, func(i, j int) bool { return out.tuples[i][0].Compare(out.tuples[j][0]) > 0 })
		out.tuples = append(out.tuples[:1], Tuple{Null(), Null()})
		if after := r.String(); after != before {
			t.Errorf("%s: input changed\n--- before ---\n%s--- after ---\n%s", op.name, before, after)
		}
	}
}

// TestIdentityIsByValueNotByJoinedKey: two rows are one only when their
// values are. Joining value keys with NUL gave ("a\x00s:x", "y") and
// ("a", "x\x00s:y") one key, so Distinct, Project and UnionAll kept one of
// them and NaturalJoin matched them. Beside that case, the pairs of values
// that are distinct (an int and the float it equals, ±0, strings that
// differ in case) and the one that is not (NaNs with different payloads).
func TestIdentityIsByValueNotByJoinedKey(t *testing.T) {
	nul := [2]Tuple{{String("a\x00s:x"), String("y")}, {String("a"), String("x\x00s:y")}}
	if nul[0].Key() != nul[1].Key() {
		t.Fatal("the case no longer has one joined key")
	}
	cases := []struct {
		name string
		rows [2]Tuple
		same bool
	}{
		{"NUL in a string", nul, false},
		{"int and float", [2]Tuple{{Int(5), Null()}, {Float(5), Null()}}, false},
		{"±0", [2]Tuple{{Float(0), Null()}, {Float(math.Copysign(0, -1)), Null()}}, false},
		{"case", [2]Tuple{{String("Ford"), Null()}, {String("ford"), Null()}}, false},
		{"NaN payloads", [2]Tuple{{Float(math.NaN()), Null()}, {Float(math.Float64frombits(0x7ff8000000000001)), Null()}}, true},
	}
	for _, c := range cases {
		want := 2
		if c.same {
			want = 1
		}
		r := New("r", NewSchema("A", "B"))
		r.MustInsert(c.rows[0]...)
		r.MustInsert(c.rows[1]...)
		p, _ := r.Project("A", "B")
		u, _ := UnionAll([]*Relation{r})
		for op, n := range map[string]int{"Distinct": r.Distinct().Len(), "Project": p.Len(), "UnionAll": u.Len()} {
			if n != want {
				t.Errorf("%s: %s kept %d of the two rows, want %d", c.name, op, n, want)
			}
		}
		r1, r2 := New("r1", r.Schema()), New("r2", r.Schema())
		r1.MustInsert(c.rows[0]...)
		r2.MustInsert(c.rows[1]...)
		if n := r1.NaturalJoin(r2).Len(); n != 2-want {
			t.Errorf("%s: NaturalJoin matched %d rows, want %d", c.name, n, 2-want)
		}
		if d, _ := r1.Diff(r2); d.Len() != want-1 {
			t.Errorf("%s: Diff kept %d rows, want %d", c.name, d.Len(), want-1)
		}
	}
}

// TestCarvedTuplesDoNotAlias: the operators that make new rows cut them
// from one slab, each with capacity equal to its length, so appending to
// one reallocates it and never writes into the row carved after it.
func TestCarvedTuplesDoNotAlias(t *testing.T) {
	r := New("r", NewSchema("A", "B"))
	for i := 0; i < 4; i++ {
		r.MustInsert(Int(int64(i)), String("b"))
	}
	other := New("o", NewSchema("B", "C"))
	other.MustInsert(String("b"), Int(7))
	perm := New("p", NewSchema("B", "A"))
	perm.MustInsert(String("z"), Int(8))
	perm.MustInsert(String("z"), Int(9))
	var m Merge
	m.Add(r)
	m.Add(perm)
	proj, _ := r.Project("A")
	for op, tuples := range map[string][]Tuple{
		"Insert":       r.Tuples(),
		"Project":      proj.Tuples(),
		"NaturalJoin":  r.NaturalJoin(other).Tuples(),
		"permuted Add": m.Relation().Tuples()[4:],
	} {
		for i := 0; i+1 < len(tuples); i++ {
			if cap(tuples[i]) != len(tuples[i]) {
				t.Errorf("%s: tuple %d has cap %d, len %d", op, i, cap(tuples[i]), len(tuples[i]))
			}
			before := tuples[i+1].Key()
			grown := append(tuples[i], String("junk"))
			if &grown[0] == &tuples[i][0] {
				t.Errorf("%s: appending to tuple %d did not reallocate it", op, i)
			}
			if tuples[i+1].Key() != before {
				t.Errorf("%s: appending to tuple %d changed tuple %d", op, i, i+1)
			}
		}
	}
}

// TestDerivedInsertLeavesInputAlone: a relation derived by an operator
// that keeps its input's rows has a tuple list of its own, so inserting
// into it changes nothing the input holds.
func TestDerivedInsertLeavesInputAlone(t *testing.T) {
	for op, derive := range map[string]func(*Relation) *Relation{
		"Select": func(r *Relation) *Relation { return r.Select(func(Tuple) bool { return true }) },
		"Rename": func(r *Relation) *Relation { return r.Rename("q", nil) },
		"Limit":  func(r *Relation) *Relation { return r.Limit(2) },
	} {
		r := New("r", NewSchema("A"))
		r.MustInsert(Int(1))
		r.MustInsert(Int(2))
		before := r.String()
		d := derive(r)
		d.MustInsert(Int(3))
		r.MustInsert(Int(4)) // would overwrite d's 3 if the two shared a list
		if r.Len() != 3 || r.String() != before+"4\n" {
			t.Errorf("%s: the input changed:\n%s", op, r)
		}
		if got := d.Tuples()[d.Len()-1]; !got[0].Equal(Int(3)) {
			t.Errorf("%s: the derived relation's last tuple is %v, want 3", op, got)
		}
	}
}
