package relation

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Tuple is a row of values positionally aligned with a relation's schema.
type Tuple []Value

// Key returns the values' keys joined by NUL. A string holding NUL can give
// two different tuples one key, so the relational operations never use it:
// they compare values (see Set).
func (t Tuple) Key() string { return string(t.appendKey(make([]byte, 0, 64))) }

// appendKey appends the tuple's key to buf.
func (t Tuple) appendKey(buf []byte) []byte {
	for i, v := range t {
		if i > 0 {
			buf = append(buf, 0)
		}
		buf = v.appendKey(buf)
	}
	return buf
}

// Clone copies the tuple. The copy's capacity is its length.
func (t Tuple) Clone() Tuple { return append(make(Tuple, 0, len(t)), t...) }

// carve cuts the next n values off the slab as a tuple whose capacity is
// its length, so appending to it reallocates instead of writing into the
// tuple carved after it.
func carve(slab *[]Value, n int) Tuple {
	t := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return t
}

// Relation is an in-memory relation: a named schema plus a bag of tuples.
// Operations that produce new relations never mutate their receivers. A
// tuple is built once and immutable after: Insert copies the caller's
// slice, the operators that make new rows (Project, NaturalJoin, a union
// whose columns must be permuted) carve them from one slab per call, and
// those that keep whole tuples (Select, Distinct, Diff, Rename, the sorts,
// Limit, UnionAll) share them with the result.
type Relation struct {
	name   string
	schema Schema
	tuples []Tuple
}

// New creates an empty relation with the given name and schema. Schemas
// are immutable, so the relation shares the caller's.
func New(name string, schema Schema) *Relation {
	return &Relation{name: name, schema: schema}
}

// FromTuples returns a relation over schema holding tuples, which it takes
// rather than copies: the caller must change neither the slice nor a tuple
// in it afterwards. Every tuple must have the schema's arity.
func FromTuples(name string, schema Schema, tuples []Tuple) (*Relation, error) {
	for _, t := range tuples {
		if len(t) != len(schema) {
			return nil, fmt.Errorf("relation %s: tuple arity %d does not match schema %s", name, len(t), schema)
		}
	}
	return &Relation{name: name, schema: schema, tuples: slices.Clip(tuples)}, nil
}

// Name returns the relation's name (possibly empty for intermediate
// results).
func (r *Relation) Name() string { return r.name }

// Schema returns the relation's schema. Callers must not mutate it.
func (r *Relation) Schema() Schema { return r.schema }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Tuples returns the underlying tuple slice. Callers must not mutate it.
func (r *Relation) Tuples() []Tuple { return r.tuples }

// Insert appends a tuple, validating arity.
func (r *Relation) Insert(t Tuple) error {
	if len(t) != len(r.schema) {
		return fmt.Errorf("relation %s: tuple arity %d does not match schema %s", r.name, len(t), r.schema)
	}
	r.tuples = append(r.tuples, t.Clone())
	return nil
}

// MustInsert inserts values as a tuple and panics on arity mismatch. It is
// intended for tests and static site data where a mismatch is a bug.
func (r *Relation) MustInsert(vals ...Value) {
	if err := r.Insert(Tuple(vals)); err != nil {
		panic(err)
	}
}

// InsertMap inserts a tuple given attribute → value assignments. Attributes
// missing from the map become null; unknown attributes are an error.
func (r *Relation) InsertMap(m map[string]Value) error {
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

// Get returns the value of attr in tuple t (by schema position).
func (r *Relation) Get(t Tuple, attr string) (Value, bool) {
	i := r.schema.IndexOf(attr)
	if i < 0 || i >= len(t) {
		return Null(), false
	}
	return t[i], true
}

// Rename returns a copy of r with name newName and schema attributes
// renamed per the mapping (attributes not in the mapping keep their names).
func (r *Relation) Rename(newName string, mapping map[string]string) *Relation {
	sch := make(Schema, len(r.schema))
	for i, a := range r.schema {
		if n, ok := mapping[a]; ok {
			sch[i] = n
		} else {
			sch[i] = a
		}
	}
	return &Relation{name: newName, schema: sch, tuples: append([]Tuple(nil), r.tuples...)}
}

// Project returns the projection of r onto attrs (which must all exist),
// with duplicates removed — projection is a set operation in the paper's
// algebra. The first pass keeps the first source row of each distinct
// projection; the second carves exactly those projections from one slab.
func (r *Relation) Project(attrs ...string) (*Relation, error) {
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		j := r.schema.IndexOf(a)
		if j < 0 {
			return nil, fmt.Errorf("project: attribute %q not in schema %s of %s", a, r.schema, r.name)
		}
		idx[i] = j
	}
	sch, err := ParseSchema(attrs)
	if err != nil {
		return nil, fmt.Errorf("project: %w", err)
	}
	out := &Relation{schema: sch, tuples: make([]Tuple, 0, len(r.tuples))}
	x := newIndex(len(r.tuples))
	for _, t := range r.tuples {
		h := hashAt(t, idx)
		if free, dup := x.lookup(h, func(p int) bool { return sameAt(out.tuples[p], idx, t, idx) }); !dup {
			*free = slot{hash: h, pos: len(out.tuples) + 1}
			out.tuples = append(out.tuples, t)
		}
	}
	slab := make([]Value, len(out.tuples)*len(idx))
	for i, t := range out.tuples {
		nt := carve(&slab, len(idx))
		for k, j := range idx {
			nt[k] = t[j]
		}
		out.tuples[i] = nt
	}
	return out, nil
}

// Select returns the tuples of r satisfying pred.
func (r *Relation) Select(pred func(Tuple) bool) *Relation {
	out := New(r.name, r.schema)
	for _, t := range r.tuples {
		if pred(t) {
			out.tuples = append(out.tuples, t)
		}
	}
	return out
}

// SelectEq returns the tuples whose attr equals val. Selecting on an
// attribute absent from the schema yields an error — in the webbase this
// indicates a query attribute the site does not expose.
func (r *Relation) SelectEq(attr string, val Value) (*Relation, error) {
	i := r.schema.IndexOf(attr)
	if i < 0 {
		return nil, fmt.Errorf("select: attribute %q not in schema %s of %s", attr, r.schema, r.name)
	}
	return r.Select(func(t Tuple) bool { return t[i].Equal(val) }), nil
}

// Union returns the set union of r and other. The schemas must contain the
// same attribute set; other's columns are permuted to match r's order.
func (r *Relation) Union(other *Relation) (*Relation, error) {
	return UnionAll([]*Relation{r, other})
}

// UnionAll returns the set union of rels in first-occurrence order, under
// the schema of the first (the others' columns are permuted to match it).
// Nil entries (branches that produced nothing) are skipped; the result is
// nil when every entry is. Tuples are immutable, so the result shares
// them with its inputs.
func UnionAll(rels []*Relation) (*Relation, error) {
	var m Merge
	for _, r := range rels {
		if _, err := m.Add(r); err != nil {
			return nil, err
		}
	}
	return m.Relation(), nil
}

// Merge is a set union built one relation at a time, in first-occurrence
// order: one Set for the whole union, where a pairwise fold re-indexes
// everything merged so far at every step. The zero value is an empty union
// ready for Add.
type Merge struct {
	out *Relation
	set Set // the union's tuples; out.tuples is set.tuples
}

// Add merges r into the union and returns the tuples it contributed that
// no earlier relation (and no earlier tuple of r) had: a sub-slice of the
// union's own tuples with cap == len, so appending to it cannot reach the
// tuples a later Add lands. The first relation fixes the schema; a later
// one with the same attribute set in another order has its columns
// permuted to match, and one with a different attribute set is an error
// that leaves the union as it was. A nil r contributes nothing.
func (m *Merge) Add(r *Relation) ([]Tuple, error) {
	if r == nil {
		return nil, nil
	}
	var perm []int
	if m.out == nil {
		m.out = New("", r.schema)
	} else if !m.out.schema.Equal(r.schema) {
		var err error
		if perm, err = alignment(m.out.schema, r.schema, "union"); err != nil {
			return nil, err
		}
	}
	start := len(m.set.tuples)
	m.set.grow(len(r.tuples))
	if perm == nil {
		for _, t := range r.tuples {
			m.set.Add(t)
		}
	} else {
		// A permuted row is carved where the next new row goes; the slab
		// advances only when the row is new.
		slab := make([]Value, len(r.tuples)*len(perm))
		for _, t := range r.tuples {
			nt := slab[:len(perm):len(perm)]
			for i, j := range perm {
				nt[i] = t[j]
			}
			if m.set.Add(nt) {
				slab = slab[len(perm):]
			}
		}
	}
	m.out.tuples = m.set.tuples
	end := len(m.set.tuples)
	return m.set.tuples[start:end:end], nil
}

// Len is the number of distinct tuples merged so far.
func (m *Merge) Len() int {
	if m.out == nil {
		return 0
	}
	return len(m.out.tuples)
}

// Relation returns the union merged so far, nil until a non-nil relation
// has been added. It is the union's own storage, not a copy.
func (m *Merge) Relation() *Relation { return m.out }

// Diff returns the set difference r − other. Schemas must contain the same
// attribute set.
func (r *Relation) Diff(other *Relation) (*Relation, error) {
	perm, err := alignment(r.schema, other.schema, "difference")
	if err != nil {
		return nil, err
	}
	// other's rows are indexed in r's column order, read through perm.
	x := newIndex(len(other.tuples))
	for p, t := range other.tuples {
		h := hashAt(t, perm)
		if free, dup := x.lookup(h, func(q int) bool { return sameAt(other.tuples[q], perm, t, perm) }); !dup {
			*free = slot{hash: h, pos: p + 1}
		}
	}
	out := &Relation{schema: r.schema, tuples: make([]Tuple, 0, len(r.tuples))}
	for _, t := range r.tuples {
		if _, drop := x.lookup(hashAt(t, nil), func(q int) bool { return sameAt(other.tuples[q], perm, t, nil) }); !drop {
			out.tuples = append(out.tuples, t)
		}
	}
	return out, nil
}

// alignment returns, for each attribute of want, its index in have.
func alignment(want, have Schema, op string) ([]int, error) {
	if !want.EqualUnordered(have) {
		return nil, fmt.Errorf("%s: schemas %s and %s differ", op, want, have)
	}
	perm := make([]int, len(want))
	for i, a := range want {
		perm[i] = have.IndexOf(a)
	}
	return perm, nil
}

// NaturalJoin returns the natural join of r and other on their common
// attributes. With no common attributes it degenerates to the cartesian
// product, as in the standard algebra. An output row is r's row followed
// by other's attributes r lacks; when other has none, the row is r's own
// and is shared, and otherwise the rows are carved from one slab.
func (r *Relation) NaturalJoin(other *Relation) *Relation {
	common := r.schema.Intersect(other.schema)
	extra := other.schema.Minus(r.schema)
	out := New("", r.schema)
	if len(extra) > 0 {
		out.schema = r.schema.Union(other.schema)
	}

	cols := make([]int, 2*len(common)+len(extra))
	rIdx, oIdx, extraIdx := cols[:len(common)], cols[len(common):2*len(common)], cols[2*len(common):]
	for i, a := range common {
		rIdx[i] = r.schema.IndexOf(a)
		oIdx[i] = other.schema.IndexOf(a)
	}
	for i, a := range extra {
		extraIdx[i] = other.schema.IndexOf(a)
	}

	// Hash join on the common attributes. The index files the first row of
	// other with each key; next chains the others in other's order, and
	// first holds, for each row of r, the chain it matches. Positions are
	// stored plus one, so 0 ends a chain.
	links := make([]int, len(other.tuples)+len(r.tuples))
	next, first := links[:len(other.tuples)], links[len(other.tuples):]
	x := newIndex(len(other.tuples))
	for p := len(other.tuples) - 1; p >= 0; p-- {
		t := other.tuples[p]
		h := hashAt(t, oIdx)
		s, dup := x.lookup(h, func(q int) bool { return sameAt(other.tuples[q], oIdx, t, oIdx) })
		if dup {
			next[p] = s.pos
		}
		*s = slot{hash: h, pos: p + 1}
	}
	n := 0
	for i, t := range r.tuples {
		if s, ok := x.lookup(hashAt(t, rIdx), func(q int) bool { return sameAt(other.tuples[q], oIdx, t, rIdx) }); ok {
			first[i] = s.pos
			for q := s.pos; q != 0; q = next[q-1] {
				n++
			}
		}
	}

	out.tuples = make([]Tuple, 0, n)
	width := len(out.schema)
	var slab []Value
	if len(extra) > 0 {
		slab = make([]Value, n*width)
	}
	for i, t := range r.tuples {
		for q := first[i]; q != 0; q = next[q-1] {
			if len(extra) == 0 {
				out.tuples = append(out.tuples, t)
				continue
			}
			nt := carve(&slab, width)
			copy(nt, t)
			for k, j := range extraIdx {
				nt[len(t)+k] = other.tuples[q-1][j]
			}
			out.tuples = append(out.tuples, nt)
		}
	}
	return out
}

// Distinct returns r with duplicate tuples removed.
func (r *Relation) Distinct() *Relation {
	var s Set
	s.grow(len(r.tuples))
	for _, t := range r.tuples {
		s.Add(t)
	}
	return &Relation{name: r.name, schema: r.schema, tuples: s.tuples}
}

// SortBy returns a copy of r sorted by the given attributes in order.
// Unknown attributes are ignored so that callers can pass a preferred
// ordering without knowing the exact schema.
func (r *Relation) SortBy(attrs ...string) *Relation {
	var idx []int
	for _, a := range attrs {
		if j := r.schema.IndexOf(a); j >= 0 {
			idx = append(idx, j)
		}
	}
	out := New(r.name, r.schema)
	out.tuples = append([]Tuple(nil), r.tuples...)
	sort.SliceStable(out.tuples, func(i, j int) bool {
		for _, k := range idx {
			if c := out.tuples[i][k].Compare(out.tuples[j][k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out
}

// SortKey orders a relation by one attribute, optionally descending.
type SortKey struct {
	Attr string
	Desc bool
}

// SortKeys returns a copy of r sorted by the keys in order. Unknown
// attributes are ignored.
func (r *Relation) SortKeys(keys ...SortKey) *Relation {
	type ik struct {
		idx  int
		desc bool
	}
	var idx []ik
	for _, k := range keys {
		if j := r.schema.IndexOf(k.Attr); j >= 0 {
			idx = append(idx, ik{j, k.Desc})
		}
	}
	out := New(r.name, r.schema)
	out.tuples = append([]Tuple(nil), r.tuples...)
	sort.SliceStable(out.tuples, func(i, j int) bool {
		for _, k := range idx {
			c := out.tuples[i][k.idx].Compare(out.tuples[j][k.idx])
			if k.desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out
}

// Limit returns the first n tuples of r (all of them when n <= 0 or n
// exceeds the size).
func (r *Relation) Limit(n int) *Relation {
	out := New(r.name, r.schema)
	if n <= 0 || n > len(r.tuples) {
		n = len(r.tuples)
	}
	out.tuples = append([]Tuple(nil), r.tuples[:n]...)
	return out
}

// String renders the relation as an aligned text table, the format used by
// the experiment harness to print the paper's tables.
func (r *Relation) String() string {
	widths := make([]int, len(r.schema))
	for i, a := range r.schema {
		widths[i] = len(a)
	}
	rows := make([][]string, len(r.tuples))
	for ti, t := range r.tuples {
		row := make([]string, len(t))
		for i, v := range t {
			row[i] = v.String()
			if len(row[i]) > widths[i] {
				widths[i] = len(row[i])
			}
		}
		rows[ti] = row
	}
	var sb strings.Builder
	if r.name != "" {
		fmt.Fprintf(&sb, "%s:\n", r.name)
	}
	for i, a := range r.schema {
		if i > 0 {
			sb.WriteString("  ")
		}
		fmt.Fprintf(&sb, "%-*s", widths[i], a)
	}
	sb.WriteByte('\n')
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range rows {
		for i, c := range row {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
