// Package flogic implements the F-logic object model underlying the
// navigation calculus (Section 4 of the paper, Figure 3).
//
// F-logic represents complex objects — Web pages, links, forms,
// attribute/value pairs — on a par with flat relations. An object has an
// identity, class memberships (isa), single-valued ("functional", the
// paper's →) attributes and set-valued (the paper's ⇒) attributes. Class
// signatures declare the types of attributes and are checked against
// object states, mirroring the paper's double-shafted signature arrows.
//
// The package is the model's plain definition: maps, written for clarity.
// No query reads it; the map builder counts its objects (Section 7) and
// the tests hold the navigation steps to it.
package flogic

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// OID is an object identity.
type OID string

// TermKind discriminates attribute values.
type TermKind uint8

// Term kinds: scalar string, scalar integer, or a reference to another
// object.
const (
	TermString TermKind = iota
	TermInt
	TermRef
)

// Term is an attribute value: a string, an integer, or an object
// reference.
type Term struct {
	Kind TermKind
	Str  string
	Int  int64
	Ref  OID
}

// S makes a string term.
func S(s string) Term { return Term{Kind: TermString, Str: s} }

// I makes an integer term.
func I(i int64) Term { return Term{Kind: TermInt, Int: i} }

// R makes an object-reference term.
func R(id OID) Term { return Term{Kind: TermRef, Ref: id} }

// String renders the term.
func (t Term) String() string {
	switch t.Kind {
	case TermString:
		return fmt.Sprintf("%q", t.Str)
	case TermInt:
		return fmt.Sprintf("%d", t.Int)
	default:
		return string(t.Ref)
	}
}

// Equal reports term equality.
func (t Term) Equal(o Term) bool { return t == o }

// Object is one F-logic object: its id, its classes, its functional
// attributes and the members of its set-valued attributes in assertion
// order.
type Object struct {
	ID      OID
	classes map[string]bool
	funct   map[string]Term
	sets    map[string][]Term
}

// sortedKeys returns the keys of m, sorted (nil when m is empty).
func sortedKeys[V any](m map[string]V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// Classes returns the direct classes of the object, sorted.
func (o *Object) Classes() []string { return sortedKeys(o.classes) }

// Get returns the functional attribute's value.
func (o *Object) Get(attr string) (Term, bool) {
	v, ok := o.funct[attr]
	return v, ok
}

// GetAll returns the set-valued attribute's members in assertion order
// (nil when absent).
func (o *Object) GetAll(attr string) []Term { return slices.Clone(o.sets[attr]) }

// FunctAttrs returns the names of the functional attributes, sorted.
func (o *Object) FunctAttrs() []string { return sortedKeys(o.funct) }

// SetAttrs returns the names of the set-valued attributes, sorted.
func (o *Object) SetAttrs() []string { return sortedKeys(o.sets) }

// AttrCount returns the total number of attribute assertions on the
// object: functional attributes count one each, set-valued attributes one
// per member. The map-builder statistics of Section 7 are counted in these
// units.
func (o *Object) AttrCount() int {
	n := len(o.funct)
	for _, members := range o.sets {
		n += len(members)
	}
	return n
}

// AttrSig declares one attribute in a class signature: its name, whether
// it is set-valued (⇒ vs →), and its type — "string", "int", or a class
// name for object-valued attributes.
type AttrSig struct {
	Name      string
	SetValued bool
	Type      string
}

// Signature is the schema of a class, the paper's Figure 3 declarations.
type Signature struct {
	Class string
	Attrs []AttrSig
}

// attr returns the declaration of the named attribute.
func (s *Signature) attr(name string) (AttrSig, bool) {
	for _, a := range s.Attrs {
		if a.Name == name {
			return a, true
		}
	}
	return AttrSig{}, false
}

// String renders the signature in the paper's style.
func (s *Signature) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s[", s.Class)
	for i, a := range s.Attrs {
		if i > 0 {
			sb.WriteString("; ")
		}
		arrow := "=>"
		if a.SetValued {
			arrow = "=>>"
		}
		fmt.Fprintf(&sb, "%s %s %s", a.Name, arrow, a.Type)
	}
	sb.WriteString("]")
	return sb.String()
}

// Store is a collection of F-logic objects with class signatures and a
// subclass lattice. A Store is the object half of a navigation-calculus
// database state.
type Store struct {
	signatures map[string]*Signature
	supers     map[string][]string // class → direct superclasses
	byID       map[OID]*Object
	order      []*Object // in creation order
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		signatures: make(map[string]*Signature),
		supers:     make(map[string][]string),
		byID:       make(map[OID]*Object),
	}
}

// DeclareClass registers a class signature.
func (st *Store) DeclareClass(sig *Signature) { st.signatures[sig.Class] = sig }

// DeclareSubclass records sub ⊑ super (the paper's page :: web_page style
// declarations, e.g. data_page is a subclass of web_page).
func (st *Store) DeclareSubclass(sub, super string) {
	st.supers[sub] = append(st.supers[sub], super)
}

// Signatures returns all declared signatures sorted by class name.
func (st *Store) Signatures() []*Signature {
	out := make([]*Signature, 0, len(st.signatures))
	for _, class := range sortedKeys(st.signatures) {
		out = append(out, st.signatures[class])
	}
	return out
}

// object returns the object with the given id, creating it if need be.
func (st *Store) object(id OID) *Object {
	if o, ok := st.byID[id]; ok {
		return o
	}
	o := &Object{ID: id, classes: map[string]bool{}, funct: map[string]Term{}, sets: map[string][]Term{}}
	st.byID[id] = o
	st.order = append(st.order, o)
	return o
}

// Get returns the object with the given id, or nil.
func (st *Store) Get(id OID) *Object { return st.byID[id] }

// Len returns the number of objects in the store.
func (st *Store) Len() int { return len(st.order) }

// AddClass asserts id : class.
func (st *Store) AddClass(id OID, class string) { st.object(id).classes[class] = true }

// SetAttr asserts the functional attribute id[attr → val].
func (st *Store) SetAttr(id OID, attr string, val Term) { st.object(id).funct[attr] = val }

// AddAttr asserts membership in the set-valued attribute id[attr ⇒ val],
// deduplicating.
func (st *Store) AddAttr(id OID, attr string, val Term) {
	o := st.object(id)
	if !slices.Contains(o.sets[attr], val) {
		o.sets[attr] = append(o.sets[attr], val)
	}
}

// IsA reports whether the object belongs to the class, directly or through
// the subclass lattice.
func (st *Store) IsA(id OID, class string) bool {
	o := st.byID[id]
	return o != nil && st.isA(o, class)
}

func (st *Store) isA(o *Object, class string) bool {
	for c := range o.classes {
		if st.subclass(c, class, map[string]bool{}) {
			return true
		}
	}
	return false
}

// subclass reports sub ⊑ class: class is reachable from sub over the
// subclass edges. The classes seen make a cyclic lattice terminate.
func (st *Store) subclass(sub, class string, seen map[string]bool) bool {
	if sub == class {
		return true
	}
	seen[sub] = true
	for _, super := range st.supers[sub] {
		if !seen[super] && st.subclass(super, class, seen) {
			return true
		}
	}
	return false
}

// Members returns the ids of all objects belonging to the class (including
// through subclassing) in the order the objects were created — for a page,
// document order.
func (st *Store) Members(class string) []OID {
	out := []OID{}
	for _, o := range st.order {
		if st.isA(o, class) {
			out = append(out, o.ID)
		}
	}
	return out
}

// Objects returns all object ids, sorted.
func (st *Store) Objects() []OID {
	out := make([]OID, 0, len(st.order))
	for _, o := range st.order {
		out = append(out, o.ID)
	}
	slices.Sort(out)
	return out
}

// Path evaluates the F-logic path expression id.a1.a2...an over functional
// attributes, dereferencing object-valued steps, and returns the final
// term.
func (st *Store) Path(id OID, attrs ...string) (Term, bool) {
	cur := R(id)
	for _, a := range attrs {
		if cur.Kind != TermRef {
			return Term{}, false
		}
		o := st.byID[cur.Ref]
		if o == nil {
			return Term{}, false
		}
		v, ok := o.funct[a]
		if !ok {
			return Term{}, false
		}
		cur = v
	}
	return cur, true
}

// TypeErrors checks every object against the signatures of its classes and
// returns a description of each violation: undeclared attributes, a
// set-valued attribute used functionally (or vice versa), and scalar type
// mismatches. Objects of undeclared classes are not checked — the open
// world of the Web always contains unanticipated structure.
func (st *Store) TypeErrors() []string {
	var errs []string
	for _, o := range st.order {
		for class := range o.classes {
			sig := st.signatures[class]
			if sig == nil {
				continue
			}
			// An attribute the signature does not declare may belong to
			// another of o's classes.
			for name, v := range o.funct {
				if decl, ok := sig.attr(name); ok && decl.SetValued {
					errs = append(errs, fmt.Sprintf("%s: attribute %s of class %s is set-valued but used functionally", o.ID, name, class))
				} else if ok {
					errs = appendTypeError(errs, o.ID, name, decl.Type, v)
				}
			}
			for name, members := range o.sets {
				if decl, ok := sig.attr(name); ok && !decl.SetValued {
					errs = append(errs, fmt.Sprintf("%s: attribute %s of class %s is functional but used set-valued", o.ID, name, class))
				} else if ok {
					for _, v := range members {
						errs = appendTypeError(errs, o.ID, name, decl.Type, v)
					}
				}
			}
		}
	}
	sort.Strings(errs)
	return errs
}

// appendTypeError appends to errs the error of id.attr holding val where
// its signature declares the type declared, if val is not of that type.
func appendTypeError(errs []string, id OID, attr, declared string, val Term) []string {
	want := TermRef
	switch declared {
	case "string":
		want = TermString
	case "int":
		want = TermInt
	default: // class-typed attribute: value must reference an object
		declared += " object"
	}
	if val.Kind == want {
		return errs
	}
	return append(errs, fmt.Sprintf("%s.%s: expected %s, got %s", id, attr, declared, val))
}
