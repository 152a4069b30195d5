package relation

import (
	"hash/maphash"
	"slices"
)

// seed keys the string hash. It differs from process to process; no table
// is ever read in slot order, so it cannot change any output.
var seed = maphash.MakeSeed()

// hashAt hashes t's values at cols, in order; nil cols stands for every
// column. Tuples whose values there are the same (see Value.same) hash
// alike, whichever columns they are read from.
func hashAt(t Tuple, cols []int) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	if cols == nil {
		for _, v := range t {
			h = v.mix(h)
		}
		return h
	}
	for _, j := range cols {
		h = t[j].mix(h)
	}
	return h
}

// mix folds v into the running hash h.
func (v Value) mix(h uint64) uint64 {
	x := v.n
	if v.kind == KindString {
		x = maphash.String(seed, v.s)
	}
	h = (h ^ uint64(v.kind)) * 0xbf58476d1ce4e5b9
	h = (h ^ x) * 0x94d049bb133111eb
	return h ^ h>>31
}

// sameAt reports whether a's values at acols are b's at bcols, position by
// position; nil stands for every column.
func sameAt(a Tuple, acols []int, b Tuple, bcols []int) bool {
	n := len(acols)
	if acols == nil {
		n = len(a)
	}
	for i := 0; i < n; i++ {
		if !a.at(acols, i).same(b.at(bcols, i)) {
			return false
		}
	}
	return true
}

// at is the i-th of t's values at cols.
func (t Tuple) at(cols []int, i int) Value {
	if cols == nil {
		return t[i]
	}
	return t[cols[i]]
}

// index is an open-addressed hash table of positions in a list of tuples
// kept elsewhere: a position is filed under the hash of its tuple's key
// values and found again by hash and value identity, so no key string is
// ever built. It is at most half full, which keeps probes short.
type index struct {
	slots []slot
	shift uint // 64 - log2(len(slots)): the hash's top bits pick the slot
}

// slot is one entry of an index.
type slot struct {
	hash uint64
	pos  int // position + 1; 0 marks an empty slot
}

// newIndex returns an index with room for n positions.
func newIndex(n int) index {
	var x index
	x.reserve(n)
	return x
}

// reserve makes room for n positions in all, refiling those already held
// when the table must grow.
func (x *index) reserve(n int) {
	if 2*n <= len(x.slots) {
		return
	}
	size, shift := 8, uint(61)
	for size < 2*n {
		size, shift = size<<1, shift-1
	}
	old := x.slots
	x.slots, x.shift = make([]slot, size), shift
	for _, s := range old {
		if s.pos != 0 {
			free, _ := x.lookup(s.hash, func(int) bool { return false })
			*free = s
		}
	}
}

// lookup returns the slot of the position filed under h that same accepts,
// and true; when there is none, it returns the empty slot where one would
// be filed (nil if the index has no room at all), and false.
func (x *index) lookup(h uint64, same func(pos int) bool) (*slot, bool) {
	if len(x.slots) == 0 {
		return nil, false
	}
	mask := len(x.slots) - 1
	for i := int(h >> x.shift); ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.pos == 0 {
			return s, false
		}
		if s.hash == h && same(s.pos-1) {
			return s, true
		}
	}
}

// Set is a set of tuples under value identity, in the order they were
// added: two tuples are one member when their values are pairwise the same
// kind with the same payload (strings compare case-sensitively, an int is
// never the float it equals, every NaN is one value, -0 is not +0). The
// zero Set is empty and ready for Add.
type Set struct {
	tuples []Tuple
	idx    index
}

// grow makes room for n more members without reallocating.
func (s *Set) grow(n int) {
	s.tuples = slices.Grow(s.tuples, n)
	s.idx.reserve(len(s.tuples) + n)
}

// Add adds t, which the set keeps rather than copies, and reports whether
// it was new.
func (s *Set) Add(t Tuple) bool {
	s.idx.reserve(len(s.tuples) + 1)
	h := hashAt(t, nil)
	free, dup := s.idx.lookup(h, func(p int) bool { return sameAt(s.tuples[p], nil, t, nil) })
	if dup {
		return false
	}
	*free = slot{hash: h, pos: len(s.tuples) + 1}
	s.tuples = append(s.tuples, t)
	return true
}

// Has reports whether the set holds t.
func (s *Set) Has(t Tuple) bool {
	_, ok := s.idx.lookup(hashAt(t, nil), func(p int) bool { return sameAt(s.tuples[p], nil, t, nil) })
	return ok
}
