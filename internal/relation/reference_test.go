package relation

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// The reference operations are Project, Distinct, Diff, Merge and
// NaturalJoin as they were when they deduplicated and joined through a map
// of key strings, kept as the oracle the value-identity operations are
// compared against. Their key is injective: each value's Key is prefixed
// with its length, so a string holding the separator cannot pass for two
// values, as it could when keys were joined with NUL.

// refKey is the injective key of t's values at cols (nil: every column).
func refKey(t Tuple, cols []int) string {
	var sb strings.Builder
	n := len(cols)
	if cols == nil {
		n = len(t)
	}
	for i := 0; i < n; i++ {
		k := t.at(cols, i).Key()
		sb.WriteString(strconv.Itoa(len(k)))
		sb.WriteByte(':')
		sb.WriteString(k)
	}
	return sb.String()
}

func refProject(r *Relation, attrs ...string) (*Relation, error) {
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		if idx[i] = r.schema.IndexOf(a); idx[i] < 0 {
			return nil, fmt.Errorf("project: attribute %q not in schema %s", a, r.schema)
		}
	}
	out := &Relation{schema: Schema(attrs)}
	seen := map[string]bool{}
	for _, t := range r.tuples {
		nt := make(Tuple, len(idx))
		for i, j := range idx {
			nt[i] = t[j]
		}
		if k := refKey(nt, nil); !seen[k] {
			seen[k] = true
			out.tuples = append(out.tuples, nt)
		}
	}
	return out, nil
}

func refDistinct(r *Relation) *Relation {
	out := &Relation{name: r.name, schema: r.schema}
	seen := map[string]bool{}
	for _, t := range r.tuples {
		if k := refKey(t, nil); !seen[k] {
			seen[k] = true
			out.tuples = append(out.tuples, t)
		}
	}
	return out
}

func refDiff(r, other *Relation) (*Relation, error) {
	perm, err := alignment(r.schema, other.schema, "difference")
	if err != nil {
		return nil, err
	}
	drop := map[string]bool{}
	for _, t := range other.tuples {
		drop[refKey(t, perm)] = true
	}
	out := &Relation{schema: r.schema}
	for _, t := range r.tuples {
		if !drop[refKey(t, nil)] {
			out.tuples = append(out.tuples, t)
		}
	}
	return out, nil
}

type refMerge struct {
	out  *Relation
	seen map[string]bool
}

func (m *refMerge) Add(r *Relation) ([]Tuple, error) {
	var perm []int
	if m.out == nil {
		m.out, m.seen = &Relation{schema: r.schema}, map[string]bool{}
	} else if !m.out.schema.Equal(r.schema) {
		var err error
		if perm, err = alignment(m.out.schema, r.schema, "union"); err != nil {
			return nil, err
		}
	}
	var fresh []Tuple
	for _, t := range r.tuples {
		if perm != nil {
			nt := make(Tuple, len(perm))
			for i, j := range perm {
				nt[i] = t[j]
			}
			t = nt
		}
		if k := refKey(t, nil); !m.seen[k] {
			m.seen[k] = true
			m.out.tuples = append(m.out.tuples, t)
			fresh = append(fresh, t)
		}
	}
	return fresh, nil
}

func refNaturalJoin(r, other *Relation) *Relation {
	common := r.schema.Intersect(other.schema)
	rIdx, oIdx := make([]int, len(common)), make([]int, len(common))
	for i, a := range common {
		rIdx[i], oIdx[i] = r.schema.IndexOf(a), other.schema.IndexOf(a)
	}
	var extraIdx []int
	for _, a := range other.schema.Minus(r.schema) {
		extraIdx = append(extraIdx, other.schema.IndexOf(a))
	}
	buckets := map[string][]Tuple{}
	for _, t := range other.tuples {
		k := refKey(t, oIdx)
		buckets[k] = append(buckets[k], t)
	}
	out := &Relation{schema: r.schema.Union(other.schema)}
	for _, t := range r.tuples {
		for _, ot := range buckets[refKey(t, rIdx)] {
			nt := append(Tuple{}, t...)
			for _, j := range extraIdx {
				nt = append(nt, ot[j])
			}
			out.tuples = append(out.tuples, nt)
		}
	}
	return out
}

// fuzzValues are the values a fuzzed relation is drawn from: nulls, NaNs
// with two payloads, ±0, ±Inf, an int and the float it equals, strings
// that differ only in case, and strings whose NUL would fool a joined key.
var fuzzValues = []Value{
	Null(), Int(5), Float(5), Int(0), Float(0), Float(math.Copysign(0, -1)),
	Float(math.NaN()), Float(math.Float64frombits(0x7ff8000000000001)), Float(math.Inf(1)), Float(math.Inf(-1)),
	String("a"), String("A"), String("x"), String("y"), String(""), String("5"),
	String("a\x00s:x"), String("x\x00s:y"), Bool(true), Bool(false),
}

// fuzzRel builds a relation over attrs from data, at most 12 rows, each
// value picked from fuzzValues by one byte.
func fuzzRel(data *[]byte, attrs ...string) *Relation {
	next := func() int {
		if len(*data) == 0 {
			return 0
		}
		b := (*data)[0]
		*data = (*data)[1:]
		return int(b)
	}
	r := New("f", NewSchema(attrs...))
	for n := next() % 13; n > 0; n-- {
		t := make(Tuple, len(attrs))
		for i := range t {
			t[i] = fuzzValues[next()%len(fuzzValues)]
		}
		r.tuples = append(r.tuples, t)
	}
	return r
}

// sameTuples reports whether two tuple lists hold the same values in the
// same order, compared through the injective key.
func sameTuples(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if refKey(a[i], nil) != refKey(b[i], nil) {
			return false
		}
	}
	return true
}

func FuzzRelationOps(f *testing.F) {
	// a: ("a\x00s:x", "y", 0) and ("a", "x\x00s:y", 0), one joined key;
	// b: the second, permuted; c: Y = "y" and Y = "x\x00s:y".
	f.Add([]byte{2, 16, 13, 3, 10, 17, 3, 1, 3, 10, 17, 2, 13, 1, 17, 2})
	// Random relations drawn mostly from one group of look-alikes (indexes
	// into fuzzValues), so rows repeat and nearly equal values meet.
	lookAlikes := [][]byte{{1, 2, 15}, {0, 3, 4, 5, 14, 19}, {6, 7, 8, 9}, {10, 11, 12}, {10, 12, 13, 16, 17}}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		group := lookAlikes[i%len(lookAlikes)]
		var seed []byte
		for _, arity := range []int{3, 3, 2} { // a, b, c
			n := 4 + rng.Intn(9)
			seed = append(seed, byte(n))
			for j := 0; j < n*arity; j++ {
				v := group[rng.Intn(len(group))]
				if rng.Intn(5) == 0 {
					v = byte(rng.Intn(len(fuzzValues)))
				}
				seed = append(seed, v)
			}
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a := fuzzRel(&data, "X", "Y", "Z")
		b := fuzzRel(&data, "Z", "X", "Y") // a's attributes, another column order
		c := fuzzRel(&data, "Y", "W")      // shares Y with a
		check := func(op string, got, want *Relation) {
			t.Helper()
			if !got.Schema().Equal(want.Schema()) || !sameTuples(got.Tuples(), want.Tuples()) {
				t.Errorf("%s differs from the reference\n--- got ---\n%s--- want ---\n%s", op, got, want)
			}
		}

		for _, attrs := range [][]string{{"X"}, {"Y", "X"}, {"X", "Y", "Z"}, {}} {
			got, err1 := a.Project(attrs...)
			want, err2 := refProject(a, attrs...)
			if err1 != nil || err2 != nil {
				t.Fatalf("Project(%v): %v, reference %v", attrs, err1, err2)
			}
			check("Project", got, want)
		}
		check("Distinct", a.Distinct(), refDistinct(a))
		for _, pair := range [][2]*Relation{{a, b}, {b, a}, {a, a}} {
			got, err1 := pair[0].Diff(pair[1])
			want, err2 := refDiff(pair[0], pair[1])
			if err1 != nil || err2 != nil {
				t.Fatalf("Diff: %v, reference %v", err1, err2)
			}
			check("Diff", got, want)
		}
		for _, pair := range [][2]*Relation{{a, c}, {c, a}, {a, b}, {a, a}} {
			check("NaturalJoin", pair[0].NaturalJoin(pair[1]), refNaturalJoin(pair[0], pair[1]))
		}

		var m Merge
		var ref refMerge
		for _, r := range []*Relation{a, b, a.Distinct(), b} {
			fresh, err1 := m.Add(r)
			want, err2 := ref.Add(r)
			if err1 != nil || err2 != nil {
				t.Fatalf("Merge.Add: %v, reference %v", err1, err2)
			}
			if !sameTuples(fresh, want) {
				t.Errorf("Merge.Add returned %v, reference %v", fresh, want)
			}
		}
		check("Merge", m.Relation(), ref.out)
		if _, err := m.Add(c); err == nil {
			t.Error("Merge.Add of another attribute set succeeded")
		}
	})
}
