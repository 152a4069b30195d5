package relation

import (
	"fmt"
	"testing"
	"unsafe"

	"webbase/internal/race"
)

// TestValueSize: a Value is a string, one word of payload and its kind.
func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 32 {
		t.Errorf("a Value is %d bytes, want 32", n)
	}
}

// opsInputs returns r(A, B, C) of n tuples, n/2 of them distinct on A and
// 8 on B; perm(C, A, B), whose first n/2 rows repeat r's second half; and
// other(B, D), one row for each B.
func opsInputs(n int) (r, perm, other *Relation) {
	r = New("r", NewSchema("A", "B", "C"))
	perm = New("p", NewSchema("C", "A", "B"))
	other = New("o", NewSchema("B", "D"))
	for i := 0; i < n; i++ {
		r.MustInsert(Int(int64(i%(n/2))), String(fmt.Sprint("b", i%8)), Float(float64(i)))
		perm.MustInsert(Float(float64(i+n/2)), Int(int64(i%(n/2))), String(fmt.Sprint("b", i%8)))
	}
	for i := 0; i < 8; i++ {
		other.MustInsert(String(fmt.Sprint("b", i)), Int(int64(i)))
	}
	return r, perm, other
}

// TestOpsAllocs: the operators deduplicate and join through an index of
// tuple positions and carve new rows from one slab, so each allocates a
// fixed number of times whatever the tuple count: the same at 16 tuples as
// at 256, and no more than its ceiling, about 10% above what the code
// does. An operator allocates only what it returns: its table is lent
// (tables) and its column positions are fixed arrays. Project's 4 are its
// variadic attribute list (its result's schema), the result, its list and
// its slab (6 while its positions and its table were its own); NaturalJoin's
// 4 its result, schema, list and slab (9 while it also built the common
// and extra attributes, its positions, chain links and table). Select
// allocates its result, and a list of survivors only when some tuple
// fails. A union of parts is sized once, so it costs the same at 16 parts
// as at 256: its result and its list.
func TestOpsAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	ops := []struct {
		name    string
		ceiling float64
		run     func(r, perm, other *Relation)
	}{
		{"Project", 4, func(r, _, _ *Relation) { r.Project("A", "B") }},
		{"Distinct", 3, func(r, _, _ *Relation) { r.Distinct() }},
		{"Merge.Add", 6, func(r, perm, _ *Relation) {
			var m Merge
			m.Add(r)
			m.Add(perm)
		}},
		{"NaturalJoin", 4, func(r, _, other *Relation) { r.NaturalJoin(other) }},
		{"Select (all pass)", 1, func(r, _, _ *Relation) { r.Select(func(Tuple) bool { return true }) }},
		{"Select (some fail)", 2, func(r, _, _ *Relation) { r.Select(func(t Tuple) bool { return t[2].Compare(Float(3)) != 0 }) }},
	}
	small := [3]*Relation{}
	small[0], small[1], small[2] = opsInputs(16)
	large := [3]*Relation{}
	large[0], large[1], large[2] = opsInputs(256)
	for _, op := range ops {
		atSmall := testing.AllocsPerRun(20, func() { op.run(small[0], small[1], small[2]) })
		atLarge := testing.AllocsPerRun(20, func() { op.run(large[0], large[1], large[2]) })
		t.Logf("%s: %.0f allocations over 16 tuples, %.0f over 256 (ceiling %.0f)", op.name, atSmall, atLarge, op.ceiling)
		if atLarge != atSmall || atLarge > op.ceiling {
			t.Errorf("%s allocates %.0f times over 16 tuples and %.0f over 256, want the same and at most %.0f",
				op.name, atSmall, atLarge, op.ceiling)
		}
	}

	const unionCeiling = 2 // 2; 10 at 16 parts and 17 at 256 while the list and the table grew with each part
	few, many := parts(16), parts(256)
	union := func(rels []*Relation) func() {
		return func() {
			if _, err := UnionAll(rels); err != nil {
				t.Fatal(err)
			}
		}
	}
	atFew, atMany := testing.AllocsPerRun(20, union(few)), testing.AllocsPerRun(20, union(many))
	t.Logf("UnionAll: %.0f allocations over 16 parts, %.0f over 256 (ceiling %d)", atFew, atMany, unionCeiling)
	if atMany != atFew || atMany > unionCeiling {
		t.Errorf("UnionAll allocates %.0f times over 16 parts and %.0f over 256, want the same and at most %d", atFew, atMany, unionCeiling)
	}
}

// parts returns n relations of 2 tuples over (A, B, C), each sharing one
// with the one before it. At 256 parts the union's table is the largest
// an idle table keeps (keptSlots).
func parts(n int) []*Relation {
	rels := make([]*Relation, n)
	for i := range rels {
		rels[i] = New("", NewSchema("A", "B", "C"))
		for k := 0; k < 2; k++ {
			rels[i].MustInsert(Int(int64(i+k)), String("b"), Float(1))
		}
	}
	return rels
}
