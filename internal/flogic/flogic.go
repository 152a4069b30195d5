// Package flogic implements the F-logic object model underlying the
// navigation calculus (Section 4 of the paper, Figure 3).
//
// F-logic represents complex objects — Web pages, links, forms,
// attribute/value pairs — on a par with flat relations. An object has an
// identity, class memberships (isa), single-valued ("functional", the
// paper's →) attributes and set-valued (the paper's ⇒) attributes. Class
// signatures declare the types of attributes and are checked against
// object states, mirroring the paper's double-shafted signature arrows.
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

// factKind says what a fact asserts about its object.
type factKind uint8

const (
	factIsA    factKind = iota // o : name
	factFunct                  // o[name → val]
	factMember                 // o[name ⇒ val], one member of the set
)

// fact is one assertion about an object. An object's state is the list of
// its facts in assertion order; the handful a page object carries is
// cheaper to scan than to hash. The value is kept packed — a Term is half
// again as large, and a page's facts are most of what its store weighs.
type fact struct {
	name string // class or attribute name
	str  string // the value's Str or Ref
	num  int64  // the value's Int
	kind factKind
	term TermKind
}

func newFact(kind factKind, name string, val Term) fact {
	f := fact{kind: kind, name: name}
	f.set(val)
	return f
}

func (f *fact) set(val Term) {
	f.term, f.num, f.str = val.Kind, val.Int, val.Str
	if val.Kind == TermRef {
		f.str = string(val.Ref)
	}
}

func (f *fact) val() Term {
	if f.term == TermRef {
		return Term{Kind: TermRef, Int: f.num, Ref: OID(f.str)}
	}
	return Term{Kind: f.term, Int: f.num, Str: f.str}
}

// Object is one F-logic object.
type Object struct {
	ID    OID
	facts []fact
}

// names returns the distinct names of the object's facts of one kind,
// sorted.
func (o *Object) names(kind factKind) []string {
	var out []string
	for i := range o.facts {
		if f := &o.facts[i]; f.kind == kind && !slices.Contains(out, f.name) {
			out = append(out, f.name)
		}
	}
	slices.Sort(out)
	return out
}

// find returns the object's first fact of the kind with the name, or nil.
func (o *Object) find(kind factKind, name string) *fact {
	for i := range o.facts {
		if f := &o.facts[i]; f.kind == kind && f.name == name {
			return f
		}
	}
	return nil
}

// Classes returns the direct classes of the object, sorted.
func (o *Object) Classes() []string { return o.names(factIsA) }

// Get returns the functional attribute's value.
func (o *Object) Get(attr string) (Term, bool) {
	if f := o.find(factFunct, attr); f != nil {
		return f.val(), true
	}
	return Term{}, false
}

// GetAll returns the set-valued attribute's members in assertion order
// (nil when absent).
func (o *Object) GetAll(attr string) []Term {
	var out []Term
	for i := range o.facts {
		if f := &o.facts[i]; f.kind == factMember && f.name == attr {
			out = append(out, f.val())
		}
	}
	return out
}

// FunctAttrs returns the names of the functional attributes, sorted.
func (o *Object) FunctAttrs() []string { return o.names(factFunct) }

// SetAttrs returns the names of the set-valued attributes, sorted.
func (o *Object) SetAttrs() []string { return o.names(factMember) }

// AttrCount returns the total number of attribute assertions on the
// object: functional attributes count one each, set-valued attributes one
// per member. The map-builder statistics of Section 7 are counted in these
// units.
func (o *Object) AttrCount() int {
	n := 0
	for i := range o.facts {
		if o.facts[i].kind != factIsA {
			n++
		}
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

// schema is the part of a store that every store derived from it shares:
// the class signatures and the subclass lattice.
type schema struct {
	signatures map[string]*Signature
	supers     map[string][]string // class → direct superclasses
}

// factWindow is how many facts of each object live in the store's fact
// slab; a link or action object of Figure 3 has exactly this many. Further
// facts spill to the object's own slice.
const factWindow = 3

// Store is a collection of F-logic objects with class signatures and a
// subclass lattice. A Store is the object half of a navigation-calculus
// database state.
type Store struct {
	*schema
	byID  map[OID]*Object
	order []*Object // in creation order
	// Objects and their first facts are carved from slabs, so that a store
	// costs a few allocations however many objects it holds. A full slab is
	// replaced, never grown: pointers into it stay valid.
	objSlab  []Object
	factSlab []fact
}

// NewStore returns an empty store.
func NewStore() *Store {
	st := &Store{schema: &schema{
		signatures: make(map[string]*Signature),
		supers:     make(map[string][]string),
	}}
	return st.Fresh(0)
}

// Fresh returns an empty store with room for n objects over st's signatures
// and subclass lattice. Those are schema, not state: every store derived
// from st shares them, so declare them before deriving.
func (st *Store) Fresh(n int) *Store {
	return &Store{
		schema:   st.schema,
		byID:     make(map[OID]*Object, n),
		order:    make([]*Object, 0, n),
		objSlab:  make([]Object, 0, n),
		factSlab: make([]fact, 0, n*factWindow),
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
	for _, s := range st.signatures {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

// Put creates (or returns the existing) object with the given id.
func (st *Store) Put(id OID) *Object {
	if o, ok := st.byID[id]; ok {
		return o
	}
	if len(st.objSlab) == cap(st.objSlab) {
		n := max(2*cap(st.objSlab), 8)
		st.objSlab = make([]Object, 0, n)
		st.factSlab = make([]fact, 0, n*factWindow)
	}
	k := len(st.factSlab)
	st.factSlab = st.factSlab[:k+factWindow]
	st.objSlab = append(st.objSlab, Object{ID: id, facts: st.factSlab[k : k : k+factWindow]})
	o := &st.objSlab[len(st.objSlab)-1]
	st.byID[id] = o
	st.order = append(st.order, o)
	return o
}

// Get returns the object with the given id, or nil.
func (st *Store) Get(id OID) *Object { return st.byID[id] }

// Len returns the number of objects in the store.
func (st *Store) Len() int { return len(st.order) }

// AddClass asserts id : class.
func (st *Store) AddClass(id OID, class string) {
	o := st.Put(id)
	if o.find(factIsA, class) == nil {
		o.facts = append(o.facts, fact{kind: factIsA, name: class})
	}
}

// SetAttr asserts the functional attribute id[attr → val].
func (st *Store) SetAttr(id OID, attr string, val Term) {
	o := st.Put(id)
	if f := o.find(factFunct, attr); f != nil {
		f.set(val)
		return
	}
	o.facts = append(o.facts, newFact(factFunct, attr, val))
}

// AddAttr asserts membership in the set-valued attribute id[attr ⇒ val],
// deduplicating.
func (st *Store) AddAttr(id OID, attr string, val Term) {
	o := st.Put(id)
	for i := range o.facts {
		if f := &o.facts[i]; f.kind == factMember && f.name == attr && f.val().Equal(val) {
			return
		}
	}
	o.facts = append(o.facts, newFact(factMember, attr, val))
}

// IsA reports whether the object belongs to the class, directly or through
// the subclass lattice.
func (st *Store) IsA(id OID, class string) bool {
	o := st.byID[id]
	return o != nil && st.isA(o, class)
}

func (st *Store) isA(o *Object, class string) bool {
	for i := range o.facts {
		if f := &o.facts[i]; f.kind == factIsA && st.reaches(f.name, class, len(st.supers)) {
			return true
		}
	}
	return false
}

// reaches reports sub ⊑ class. No acyclic path through the lattice has more
// edges than there are classes with a superclass, so bounding the walk by
// that many hops makes a cyclic lattice terminate without a visited set.
func (s *schema) reaches(sub, class string, hops int) bool {
	if sub == class {
		return true
	}
	if hops == 0 {
		return false
	}
	for _, sup := range s.supers[sub] {
		if s.reaches(sup, class, hops-1) {
			return true
		}
	}
	return false
}

// Members returns the ids of all objects belonging to the class (including
// through subclassing) in the order the objects were created — for a page,
// document order.
func (st *Store) Members(class string) []OID {
	out := make([]OID, 0, len(st.order))
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
		f := o.find(factFunct, a)
		if f == nil {
			return Term{}, false
		}
		cur = f.val()
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
		for i := range o.facts {
			sig := st.signatures[o.facts[i].name]
			if o.facts[i].kind != factIsA || sig == nil {
				continue
			}
			for j := range o.facts {
				f := &o.facts[j]
				decl, ok := sig.attr(f.name)
				if f.kind == factIsA || !ok {
					continue // attribute may belong to another of o's classes
				}
				switch {
				case f.kind == factFunct && decl.SetValued:
					errs = append(errs, fmt.Sprintf("%s: attribute %s of class %s is set-valued but used functionally", o.ID, f.name, sig.Class))
				case f.kind == factMember && !decl.SetValued:
					if o.find(factMember, f.name) == f { // once per attribute, not per member
						errs = append(errs, fmt.Sprintf("%s: attribute %s of class %s is functional but used set-valued", o.ID, f.name, sig.Class))
					}
				default:
					if msg := typeMatch(decl.Type, f.val()); msg != "" {
						errs = append(errs, fmt.Sprintf("%s.%s: %s", o.ID, f.name, msg))
					}
				}
			}
		}
	}
	sort.Strings(errs)
	return errs
}

func typeMatch(declared string, val Term) string {
	switch declared {
	case "string":
		if val.Kind != TermString {
			return fmt.Sprintf("expected string, got %s", val)
		}
	case "int":
		if val.Kind != TermInt {
			return fmt.Sprintf("expected int, got %s", val)
		}
	default: // class-typed attribute: value must reference an object
		if val.Kind != TermRef {
			return fmt.Sprintf("expected %s object, got %s", declared, val)
		}
	}
	return ""
}

// Clone deep-copies the store's objects. Signatures and the subclass
// lattice are shared: they are schema, not state.
func (st *Store) Clone() *Store {
	out := st.Fresh(len(st.order))
	for _, o := range st.order {
		n := out.Put(o.ID)
		n.facts = append(n.facts, o.facts...)
	}
	return out
}
