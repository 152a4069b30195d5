package relation

import (
	"fmt"
	"sort"
	"strings"
)

// Tuple is a row of values positionally aligned with a relation's schema.
type Tuple []Value

// Key returns a canonical key for deduplication.
func (t Tuple) Key() string { return string(t.appendKey(make([]byte, 0, 64))) }

// appendKey appends the tuple's key to buf (the values' keys, NUL-separated),
// so a dedup loop can reuse one buffer instead of building a string per probe.
func (t Tuple) appendKey(buf []byte) []byte {
	for i, v := range t {
		if i > 0 {
			buf = append(buf, 0)
		}
		buf = v.appendKey(buf)
	}
	return buf
}

// Clone copies the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple{}, t...) }

// Relation is an in-memory relation: a named schema plus a bag of tuples.
// Operations that produce new relations never mutate their receivers, and
// those that keep whole tuples (Select, Distinct, Diff, Rename, the sorts,
// Limit, UnionAll) share them with the result: a tuple is immutable once
// inserted, which is why Insert copies the caller's slice and nothing after
// it does.
type Relation struct {
	name   string
	schema Schema
	tuples []Tuple
}

// New creates an empty relation with the given name and schema.
func New(name string, schema Schema) *Relation {
	return &Relation{name: name, schema: schema.Clone()}
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
// algebra.
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
	out := New("", sch)
	seen := make(map[string]bool, len(r.tuples))
	for _, t := range r.tuples {
		nt := make(Tuple, len(idx))
		for i, j := range idx {
			nt[i] = t[j]
		}
		k := nt.Key()
		if !seen[k] {
			seen[k] = true
			out.tuples = append(out.tuples, nt)
		}
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
// order: one seen-set and one reused key buffer for the whole union, where
// a pairwise fold re-keys everything merged so far at every step. The zero
// value is an empty union ready for Add.
type Merge struct {
	out  *Relation
	seen map[string]struct{}
	buf  []byte
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
		m.seen = make(map[string]struct{})
	} else if !m.out.schema.Equal(r.schema) {
		var err error
		if perm, err = alignment(m.out.schema, r.schema, "union"); err != nil {
			return nil, err
		}
	}
	start := len(m.out.tuples)
	for _, t := range r.tuples {
		if perm != nil {
			nt := make(Tuple, len(perm))
			for i, j := range perm {
				nt[i] = t[j]
			}
			t = nt
		}
		m.buf = t.appendKey(m.buf[:0])
		if _, dup := m.seen[string(m.buf)]; !dup {
			m.seen[string(m.buf)] = struct{}{}
			m.out.tuples = append(m.out.tuples, t)
		}
	}
	end := len(m.out.tuples)
	return m.out.tuples[start:end:end], nil
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
	drop := make(map[string]bool, len(other.tuples))
	for _, t := range other.tuples {
		nt := make(Tuple, len(perm))
		for i, j := range perm {
			nt[i] = t[j]
		}
		drop[nt.Key()] = true
	}
	out := New("", r.schema)
	for _, t := range r.tuples {
		if !drop[t.Key()] {
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
// product, as in the standard algebra.
func (r *Relation) NaturalJoin(other *Relation) *Relation {
	common := r.schema.Intersect(other.schema)
	outSchema := r.schema.Union(other.schema)
	out := New("", outSchema)

	rIdx := make([]int, len(common))
	oIdx := make([]int, len(common))
	for i, a := range common {
		rIdx[i] = r.schema.IndexOf(a)
		oIdx[i] = other.schema.IndexOf(a)
	}
	// Attributes of other that are appended after r's.
	extra := other.schema.Minus(r.schema)
	extraIdx := make([]int, len(extra))
	for i, a := range extra {
		extraIdx[i] = other.schema.IndexOf(a)
	}

	// Hash join on the common-attribute key.
	buckets := make(map[string][]Tuple, len(other.tuples))
	var buf []byte
	for _, t := range other.tuples {
		buf = appendJoinKey(buf[:0], t, oIdx)
		buckets[string(buf)] = append(buckets[string(buf)], t)
	}
	for _, t := range r.tuples {
		buf = appendJoinKey(buf[:0], t, rIdx)
		for _, ot := range buckets[string(buf)] {
			nt := make(Tuple, 0, len(outSchema))
			nt = append(nt, t...)
			for _, j := range extraIdx {
				nt = append(nt, ot[j])
			}
			out.tuples = append(out.tuples, nt)
		}
	}
	return out
}

// appendJoinKey appends the key of t's idx columns to buf.
func appendJoinKey(buf []byte, t Tuple, idx []int) []byte {
	for i, j := range idx {
		if i > 0 {
			buf = append(buf, 0)
		}
		buf = t[j].appendKey(buf)
	}
	return buf
}

// Distinct returns r with duplicate tuples removed.
func (r *Relation) Distinct() *Relation {
	out := New(r.name, r.schema)
	seen := make(map[string]bool, len(r.tuples))
	for _, t := range r.tuples {
		if k := t.Key(); !seen[k] {
			seen[k] = true
			out.tuples = append(out.tuples, t)
		}
	}
	return out
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
