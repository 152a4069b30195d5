package flogic

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// figure3Store builds a store with the paper's Figure 3 signatures and the
// Newsday form object of Section 4.
func figure3Store() *Store {
	st := NewStore()
	st.DeclareClass(&Signature{Class: "form", Attrs: []AttrSig{
		{Name: "cgi", Type: "string"},
		{Name: "method", Type: "string"},
		{Name: "mandatory", SetValued: true, Type: "string"},
		{Name: "optional", SetValued: true, Type: "string"},
	}})
	st.DeclareClass(&Signature{Class: "action", Attrs: []AttrSig{
		{Name: "source", Type: "page"},
	}})
	st.DeclareClass(&Signature{Class: "submit_form", Attrs: []AttrSig{
		{Name: "form", Type: "form"},
		{Name: "source", Type: "page"},
	}})
	st.DeclareClass(&Signature{Class: "web_page", Attrs: []AttrSig{
		{Name: "address", Type: "string"},
		{Name: "title", Type: "string"},
		{Name: "actions", SetValued: true, Type: "action"},
	}})
	st.DeclareSubclass("submit_form", "action")
	st.DeclareSubclass("follow_link", "action")
	st.DeclareSubclass("data_page", "web_page")

	st.AddClass("form01", "form")
	st.SetAttr("form01", "cgi", S("cgi_bin/nclassy"))
	st.SetAttr("form01", "method", S("post"))
	st.AddAttr("form01", "mandatory", S("make"))
	st.AddAttr("form01", "mandatory", S("model"))
	st.AddAttr("form01", "optional", S("year"))

	st.AddClass("submit01", "submit_form")
	st.SetAttr("submit01", "form", R("form01"))
	st.SetAttr("submit01", "source", R("page01"))

	st.AddClass("page01", "web_page")
	st.SetAttr("page01", "address", S("http://www.newsday.com"))
	st.SetAttr("page01", "title", S("Newsday Classified"))
	st.AddAttr("page01", "actions", R("submit01"))
	return st
}

func TestObjectBasics(t *testing.T) {
	st := figure3Store()
	f := st.Get("form01")
	if f == nil {
		t.Fatal("form01 missing")
	}
	if got, _ := f.Get("cgi"); got.Str != "cgi_bin/nclassy" {
		t.Errorf("cgi = %v", got)
	}
	if got := f.GetAll("mandatory"); len(got) != 2 {
		t.Errorf("mandatory = %v", got)
	}
	if f.AttrCount() != 5 { // cgi, method + 2 mandatory + 1 optional
		t.Errorf("AttrCount = %d, want 5", f.AttrCount())
	}
	if got := f.Classes(); len(got) != 1 || got[0] != "form" {
		t.Errorf("classes = %v", got)
	}
	if got := f.FunctAttrs(); strings.Join(got, ",") != "cgi,method" {
		t.Errorf("funct attrs = %v", got)
	}
	if got := f.SetAttrs(); strings.Join(got, ",") != "mandatory,optional" {
		t.Errorf("set attrs = %v", got)
	}
}

func TestAddAttrDedupes(t *testing.T) {
	st := NewStore()
	st.AddAttr("x", "s", S("a"))
	st.AddAttr("x", "s", S("a"))
	if got := st.Get("x").GetAll("s"); len(got) != 1 {
		t.Errorf("dedup failed: %v", got)
	}
}

func TestIsAWithSubclassing(t *testing.T) {
	st := figure3Store()
	if !st.IsA("submit01", "submit_form") {
		t.Error("direct class failed")
	}
	if !st.IsA("submit01", "action") {
		t.Error("subclass inference failed")
	}
	if st.IsA("submit01", "web_page") {
		t.Error("wrong class accepted")
	}
	if st.IsA("nosuch", "action") {
		t.Error("missing object accepted")
	}
	// Cycles in the lattice must not loop forever.
	st.DeclareSubclass("a", "b")
	st.DeclareSubclass("b", "a")
	st.AddClass("o", "a")
	if !st.IsA("o", "b") || st.IsA("o", "zzz") {
		t.Error("cyclic lattice handled wrong")
	}
}

func TestMembers(t *testing.T) {
	st := figure3Store()
	actions := st.Members("action")
	if len(actions) != 1 || actions[0] != "submit01" {
		t.Errorf("members(action) = %v", actions)
	}
	if got := st.Members("web_page"); len(got) != 1 {
		t.Errorf("members(web_page) = %v", got)
	}
}

func TestPathExpressions(t *testing.T) {
	st := figure3Store()
	// page01.actions is set-valued; path works over functional chains:
	// submit01.form.cgi
	got, ok := st.Path("submit01", "form", "cgi")
	if !ok || got.Str != "cgi_bin/nclassy" {
		t.Errorf("path = %v %v", got, ok)
	}
	if _, ok := st.Path("submit01", "form", "nosuch"); ok {
		t.Error("missing attr should fail")
	}
	if _, ok := st.Path("submit01", "form", "cgi", "deeper"); ok {
		t.Error("path through scalar should fail")
	}
	if _, ok := st.Path("ghost", "x"); ok {
		t.Error("missing object should fail")
	}
	// Zero-length path returns the object reference itself.
	if got, ok := st.Path("form01"); !ok || got.Ref != "form01" {
		t.Errorf("empty path = %v %v", got, ok)
	}
}

func TestTypeCheckClean(t *testing.T) {
	st := figure3Store()
	if errs := st.TypeErrors(); len(errs) != 0 {
		t.Errorf("unexpected type errors: %v", errs)
	}
}

func TestTypeCheckViolations(t *testing.T) {
	st := figure3Store()
	// Wrong scalar type.
	st.SetAttr("form01", "cgi", I(42))
	// Functional attribute used set-valued.
	st.AddAttr("form01", "method", S("get"))
	// Set-valued used functionally.
	st.SetAttr("form01", "mandatory", S("oops"))
	// Object-typed attribute holding a scalar.
	st.SetAttr("submit01", "form", S("not-a-ref"))
	errs := st.TypeErrors()
	if len(errs) != 4 {
		t.Fatalf("got %d errors, want 4: %v", len(errs), errs)
	}
}

func TestSignatureString(t *testing.T) {
	sig := &Signature{Class: "form", Attrs: []AttrSig{
		{Name: "cgi", Type: "string"},
		{Name: "mandatory", SetValued: true, Type: "string"},
	}}
	got := sig.String()
	if !strings.Contains(got, "form[") || !strings.Contains(got, "cgi => string") ||
		!strings.Contains(got, "mandatory =>> string") {
		t.Errorf("signature rendering: %q", got)
	}
}

func TestTermString(t *testing.T) {
	if S("x").String() != `"x"` || I(3).String() != "3" || R("o").String() != "o" {
		t.Error("term rendering wrong")
	}
}

// TestMembersInCreationOrder: members come back in the order the objects
// were created — for a page, document order — not sorted as strings, which
// would put follow100 before follow11.
func TestMembersInCreationOrder(t *testing.T) {
	st := NewStore()
	st.DeclareSubclass("follow_link", "action")
	var want []OID
	for i := 0; i < 120; i++ {
		id := OID(fmt.Sprintf("follow%02d", i))
		st.AddClass(id, "follow_link")
		want = append(want, id)
	}
	for _, class := range []string{"follow_link", "action"} {
		if got := st.Members(class); !reflect.DeepEqual(got, want) {
			t.Errorf("Members(%s) = %v, want creation order", class, got)
		}
	}
	if got := st.Members("nosuch"); len(got) != 0 {
		t.Errorf("Members(nosuch) = %v, want none", got)
	}
}

// TestAttrCountInSection7Units: the Section-7 unit is one per
// functional attribute and one per member of a set-valued one. Overwrites,
// duplicate members and class memberships do not count, and an attribute
// name used both ways counts on both sides.
func TestAttrCountInSection7Units(t *testing.T) {
	st := NewStore()
	st.AddClass("o", "c1")
	st.AddClass("o", "c2")
	st.AddClass("o", "c1")
	if n := st.Get("o").AttrCount(); n != 0 {
		t.Errorf("classes counted as attributes: %d", n)
	}
	st.SetAttr("o", "f", S("v1"))
	st.SetAttr("o", "f", S("v2")) // overwrite
	st.SetAttr("o", "g", I(1))
	st.AddAttr("o", "s", S("m1"))
	st.AddAttr("o", "s", S("m1")) // duplicate
	st.AddAttr("o", "s", S("m2"))
	st.AddAttr("o", "f", S("as a set too"))
	for i := 0; i < 10; i++ {
		st.AddAttr("o", "big", I(int64(i)))
	}
	o := st.Get("o")
	if n := o.AttrCount(); n != 2+2+1+10 {
		t.Errorf("AttrCount = %d, want 15", n)
	}
	if v, _ := o.Get("f"); v != S("v2") {
		t.Errorf("f = %v, want the overwriting value", v)
	}
	if got := o.GetAll("big"); len(got) != 10 || got[0] != I(0) || got[9] != I(9) {
		t.Errorf("big = %v, want 0..9 in assertion order", got)
	}
	if got := strings.Join(o.FunctAttrs(), ","); got != "f,g" {
		t.Errorf("FunctAttrs = %s", got)
	}
	if got := strings.Join(o.SetAttrs(), ","); got != "big,f,s" {
		t.Errorf("SetAttrs = %s", got)
	}
	if got := strings.Join(o.Classes(), ","); got != "c1,c2" {
		t.Errorf("Classes = %s", got)
	}
}

// TestTermsRoundTrip: every kind of term comes back as it went in, as a
// functional value and as a set member.
func TestTermsRoundTrip(t *testing.T) {
	st := NewStore()
	for i, v := range []Term{S(""), S("text"), I(0), I(-7), R("other"), R("")} {
		attr := fmt.Sprintf("a%d", i)
		st.SetAttr("o", attr, v)
		st.AddAttr("o", "all", v)
		if got, ok := st.Get("o").Get(attr); !ok || got != v {
			t.Errorf("%s: got %#v, want %#v", attr, got, v)
		}
	}
	if got := st.Get("o").GetAll("all"); len(got) != 6 {
		t.Errorf("members = %v, want six distinct terms", got)
	}
}
