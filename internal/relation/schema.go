package relation

import (
	"fmt"
	"sort"
	"strings"
)

// Schema is an ordered list of attribute names. Attribute names are treated
// case-sensitively; the logical layer is responsible for standardizing names
// across sites (Section 5 of the paper).
type Schema []string

// NewSchema builds a schema from attribute names, panicking on duplicates —
// a schema with duplicate attributes is a programming error, not a runtime
// condition. For schemas arriving from user input (query text, persisted
// files), use ParseSchema instead.
func NewSchema(attrs ...string) Schema {
	s, err := ParseSchema(attrs)
	if err != nil {
		panic(err.Error())
	}
	return s
}

// ParseSchema builds a schema from attribute names supplied by external
// input, rejecting duplicates and empty names with an error.
func ParseSchema(attrs []string) (Schema, error) {
	seen := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		if a == "" {
			return nil, fmt.Errorf("relation: empty attribute name in schema")
		}
		if seen[a] {
			return nil, fmt.Errorf("relation: duplicate attribute %q in schema", a)
		}
		seen[a] = true
	}
	return Schema(attrs), nil
}

// IndexOf returns the position of attr in s, or -1 if absent.
func (s Schema) IndexOf(attr string) int {
	for i, a := range s {
		if a == attr {
			return i
		}
	}
	return -1
}

// Has reports whether attr is in the schema.
func (s Schema) Has(attr string) bool { return s.IndexOf(attr) >= 0 }

// ContainsAll reports whether every attribute of other appears in s.
func (s Schema) ContainsAll(other Schema) bool {
	for _, a := range other {
		if !s.Has(a) {
			return false
		}
	}
	return true
}

// Equal reports whether two schemas have the same attributes in the same
// order.
func (s Schema) Equal(other Schema) bool {
	if len(s) != len(other) {
		return false
	}
	for i := range s {
		if s[i] != other[i] {
			return false
		}
	}
	return true
}

// EqualUnordered reports whether two schemas contain the same attribute set.
func (s Schema) EqualUnordered(other Schema) bool {
	return len(s) == len(other) && s.ContainsAll(other)
}

// Intersect returns the attributes common to s and other, in s's order.
func (s Schema) Intersect(other Schema) Schema {
	var out Schema
	for _, a := range s {
		if other.Has(a) {
			out = append(out, a)
		}
	}
	return out
}

// Union returns s followed by the attributes of other not already in s.
func (s Schema) Union(other Schema) Schema {
	out := append(make(Schema, 0, len(s)+len(other)), s...)
	for _, a := range other {
		if !out.Has(a) {
			out = append(out, a)
		}
	}
	return out
}

// Minus returns the attributes of s not present in other.
func (s Schema) Minus(other Schema) Schema {
	var out Schema
	for _, a := range s {
		if !other.Has(a) {
			out = append(out, a)
		}
	}
	return out
}

// Clone returns a copy of the schema.
func (s Schema) Clone() Schema { return append(Schema{}, s...) }

// String renders the schema as (A, B, C).
func (s Schema) String() string {
	return "(" + strings.Join(s, ", ") + ")"
}

// AttrSet is an unordered set of attribute names, used for binding
// propagation (the sets of mandatory attributes of Section 5) and
// compatibility reasoning in the UR layer.
type AttrSet map[string]bool

// NewAttrSet builds a set from names.
func NewAttrSet(attrs ...string) AttrSet {
	s := make(AttrSet, len(attrs))
	for _, a := range attrs {
		s[a] = true
	}
	return s
}

// SetFromSchema converts a schema to a set.
func SetFromSchema(sch Schema) AttrSet { return NewAttrSet(sch...) }

// Has reports membership.
func (s AttrSet) Has(attr string) bool { return s[attr] }

// Add inserts attr.
func (s AttrSet) Add(attr string) { s[attr] = true }

// Clone copies the set.
func (s AttrSet) Clone() AttrSet {
	out := make(AttrSet, len(s))
	for a := range s {
		out[a] = true
	}
	return out
}

// Union returns a new set holding every attribute of s and other.
func (s AttrSet) Union(other AttrSet) AttrSet {
	out := s.Clone()
	for a := range other {
		out[a] = true
	}
	return out
}

// Intersect returns a new set holding the attributes in both s and other.
func (s AttrSet) Intersect(other AttrSet) AttrSet {
	out := make(AttrSet)
	for a := range s {
		if other[a] {
			out[a] = true
		}
	}
	return out
}

// Minus returns a new set holding the attributes of s not in other.
func (s AttrSet) Minus(other AttrSet) AttrSet {
	out := make(AttrSet)
	for a := range s {
		if !other[a] {
			out[a] = true
		}
	}
	return out
}

// SubsetOf reports whether every attribute of s is in other.
func (s AttrSet) SubsetOf(other AttrSet) bool {
	for a := range s {
		if !other[a] {
			return false
		}
	}
	return true
}

// Equal reports set equality.
func (s AttrSet) Equal(other AttrSet) bool {
	return len(s) == len(other) && s.SubsetOf(other)
}

// Sorted returns the members in lexicographic order.
func (s AttrSet) Sorted() []string {
	out := make([]string, 0, len(s))
	for a := range s {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// String renders the set canonically as {A, B}.
func (s AttrSet) String() string {
	return "{" + strings.Join(s.Sorted(), ", ") + "}"
}

// Key returns a canonical string usable as a map key for deduplicating
// attribute sets (e.g. alternative binding sets for one relation).
func (s AttrSet) Key() string { return strings.Join(s.Sorted(), "\x00") }
