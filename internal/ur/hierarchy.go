// Package ur implements the external schema layer of the webbase
// (Section 6): the structured universal relation.
//
// The end user sees a single wide relation — the universal relation — and
// queries it by naming output attributes and conditions: no joins, "sheer
// simplicity". The classical UR's lossless-join semantics and uniqueness
// assumptions do not hold on the Web, so the paper replaces them with
//
//   - a concept hierarchy organizing the UR's attributes (Figure 5), which
//     dissolves the unique-role assumption: the user disambiguates an
//     attribute by where it sits in the hierarchy; and
//   - compatibility rules R ⊕ R1…Rk ("joining R after R1…Rk makes sense")
//     and R ⊖ R1…Rk ("that join is a navigation trap"), the "poor man's
//     lossless join requirement", which replace the unique-relationship
//     assumption.
//
// Query semantics: the union, over every maximal object (maximal
// compatible set of UR relations) covering the query's attributes, of the
// join of a minimal compatible covering subset of that object.
package ur

import (
	"fmt"
	"sort"
	"strings"
)

// NodeKind classifies concept-hierarchy nodes.
type NodeKind uint8

// Concept node kinds: a category groups alternatives or aspects, a
// relation is a UR relation (mapped onto a logical relation), an attribute
// is a leaf the user can output or constrain.
const (
	Category NodeKind = iota
	Relation
	Attribute
)

// Concept is one node of the concept hierarchy.
type Concept struct {
	Name     string
	Kind     NodeKind
	Children []*Concept
}

// Cat builds a category node.
func Cat(name string, children ...*Concept) *Concept {
	return &Concept{Name: name, Kind: Category, Children: children}
}

// Rel builds a relation node whose children are its attributes (given by
// name) or nested categories.
func Rel(name string, children ...*Concept) *Concept {
	return &Concept{Name: name, Kind: Relation, Children: children}
}

// Attr builds an attribute leaf.
func Attr(name string) *Concept {
	return &Concept{Name: name, Kind: Attribute}
}

// Attrs builds several attribute leaves.
func Attrs(names ...string) []*Concept {
	out := make([]*Concept, len(names))
	for i, n := range names {
		out[i] = Attr(n)
	}
	return out
}

// Hierarchy is the concept hierarchy of a universal relation.
type Hierarchy struct {
	Root *Concept
}

// Validate checks the structural invariants: non-nil root, attribute nodes
// are leaves, relation nodes are not nested inside relation nodes, and
// relation names are unique. Attribute names may repeat across relations —
// that is the whole point (the same Make appears under Classifieds and
// Dealers); within one relation they must be unique.
func (h *Hierarchy) Validate() error {
	if h.Root == nil {
		return fmt.Errorf("ur: hierarchy has no root")
	}
	relSeen := make(map[string]bool)
	var walk func(c *Concept, inRelation string) error
	walk = func(c *Concept, inRelation string) error {
		switch c.Kind {
		case Attribute:
			if len(c.Children) != 0 {
				return fmt.Errorf("ur: attribute %q has children", c.Name)
			}
			if inRelation == "" {
				return fmt.Errorf("ur: attribute %q is not inside a relation", c.Name)
			}
		case Relation:
			if inRelation != "" {
				return fmt.Errorf("ur: relation %q nested inside relation %q", c.Name, inRelation)
			}
			if relSeen[c.Name] {
				return fmt.Errorf("ur: duplicate relation %q", c.Name)
			}
			relSeen[c.Name] = true
			attrSeen := make(map[string]bool)
			for _, a := range attrLeaves(c) {
				if attrSeen[a] {
					return fmt.Errorf("ur: relation %q lists attribute %q twice", c.Name, a)
				}
				attrSeen[a] = true
			}
			inRelation = c.Name
		}
		for _, ch := range c.Children {
			if err := walk(ch, inRelation); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(h.Root, "")
}

func attrLeaves(c *Concept) []string {
	var out []string
	var walk func(*Concept)
	walk = func(n *Concept) {
		if n.Kind == Attribute {
			out = append(out, n.Name)
			return
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	for _, ch := range c.Children {
		walk(ch)
	}
	return out
}

// Relations returns the names of all relation nodes, sorted.
func (h *Hierarchy) Relations() []string {
	var out []string
	h.walk(func(c *Concept) {
		if c.Kind == Relation {
			out = append(out, c.Name)
		}
	})
	sort.Strings(out)
	return out
}

// AttrsOf returns the attribute leaves under the named relation.
func (h *Hierarchy) AttrsOf(rel string) []string {
	var node *Concept
	h.walk(func(c *Concept) {
		if c.Kind == Relation && c.Name == rel {
			node = c
		}
	})
	if node == nil {
		return nil
	}
	return attrLeaves(node)
}

// AllAttrs returns every distinct attribute leaf, sorted: the universal
// relation's schema as presented to the user.
func (h *Hierarchy) AllAttrs() []string {
	seen := make(map[string]bool)
	h.walk(func(c *Concept) {
		if c.Kind == Attribute {
			seen[c.Name] = true
		}
	})
	out := make([]string, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

func (h *Hierarchy) walk(fn func(*Concept)) {
	if h.Root == nil {
		return
	}
	var rec func(*Concept)
	rec = func(c *Concept) {
		fn(c)
		for _, ch := range c.Children {
			rec(ch)
		}
	}
	rec(h.Root)
}

// String renders the hierarchy as an indented tree, the textual Figure 5.
func (h *Hierarchy) String() string {
	var sb strings.Builder
	var rec func(c *Concept, depth int)
	rec = func(c *Concept, depth int) {
		marker := ""
		switch c.Kind {
		case Relation:
			marker = " [relation]"
		case Attribute:
			marker = " [attr]"
		}
		fmt.Fprintf(&sb, "%s%s%s\n", strings.Repeat("  ", depth), c.Name, marker)
		for _, ch := range c.Children {
			rec(ch, depth+1)
		}
	}
	rec(h.Root, 0)
	return sb.String()
}
