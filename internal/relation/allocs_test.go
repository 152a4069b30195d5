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

// TestOpsAllocs: the operators deduplicate and join through an index of
// tuple positions and carve new rows from one slab, so each allocates a
// fixed number of times whatever the tuple count: the same at 16 tuples as
// at 256, and no more than its ceiling. Project's count includes the
// attribute list its variadic call builds.
func TestOpsAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	build := func(n int) (r, perm, other *Relation) {
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
	ops := []struct {
		name    string
		ceiling float64
		run     func(r, perm, other *Relation)
	}{
		{"Project", 6, func(r, _, _ *Relation) { r.Project("A", "B") }},
		{"Distinct", 3, func(r, _, _ *Relation) { r.Distinct() }},
		{"Merge.Add", 7, func(r, perm, _ *Relation) {
			var m Merge
			m.Add(r)
			m.Add(perm)
		}},
		{"NaturalJoin", 9, func(r, _, other *Relation) { r.NaturalJoin(other) }},
	}
	small := [3]*Relation{}
	small[0], small[1], small[2] = build(16)
	large := [3]*Relation{}
	large[0], large[1], large[2] = build(256)
	for _, op := range ops {
		atSmall := testing.AllocsPerRun(20, func() { op.run(small[0], small[1], small[2]) })
		atLarge := testing.AllocsPerRun(20, func() { op.run(large[0], large[1], large[2]) })
		t.Logf("%s: %.0f allocations over 16 tuples, %.0f over 256 (ceiling %.0f)", op.name, atSmall, atLarge, op.ceiling)
		if atLarge != atSmall || atLarge > op.ceiling {
			t.Errorf("%s allocates %.0f times over 16 tuples and %.0f over 256, want the same and at most %.0f",
				op.name, atSmall, atLarge, op.ceiling)
		}
	}
}
