package htmlkit

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

const newsdayLike = `
<html><head><title>Classifieds</title></head><body>
<a href="/auto">Automobiles</a>
<a href="http://other.example/x">Elsewhere</a>
<form name="f1" action="/cgi-bin/nclassy" method="POST">
  <select name="make">
    <option value="ford">Ford</option>
    <option value="jaguar" selected>Jaguar</option>
  </select>
  <input type="text" name="model" maxlength="20">
  <input type="radio" name="cond" value="new">
  <input type="radio" name="cond" value="used" checked>
  <input type="checkbox" name="pics" value="yes">
  <input type="hidden" name="region" value="nyc">
  <input type="submit" name="go" value="Search">
</form>
</body></html>`

func TestLinks(t *testing.T) {
	doc := Parse([]byte(newsdayLike))
	links := Links(doc)
	want := []Link{{Name: "Automobiles", Href: "/auto"}, {Name: "Elsewhere", Href: "http://other.example/x"}}
	if !reflect.DeepEqual(links, want) {
		t.Errorf("links = %+v, want %+v", links, want)
	}
}

func TestForms(t *testing.T) {
	doc := Parse([]byte(newsdayLike))
	forms := Forms(doc, "http://newsday.example/classified/")
	if len(forms) != 1 {
		t.Fatalf("forms: %d", len(forms))
	}
	f := forms[0]
	if f.Name != "f1" || f.Method != "post" {
		t.Errorf("form meta: %+v", f)
	}
	if f.Action != "http://newsday.example/cgi-bin/nclassy" {
		t.Errorf("action = %q", f.Action)
	}

	mk, ok := f.Field("make")
	if !ok || mk.Widget != WidgetSelect {
		t.Fatalf("make field: %+v %v", mk, ok)
	}
	if !reflect.DeepEqual(mk.Domain, []string{"ford", "jaguar"}) {
		t.Errorf("make domain = %v", mk.Domain)
	}
	if mk.Default != "jaguar" {
		t.Errorf("make default = %q", mk.Default)
	}

	md, _ := f.Field("model")
	if md.Widget != WidgetText || md.MaxLength != 20 || md.Mandatory {
		t.Errorf("model field: %+v", md)
	}

	cond, _ := f.Field("cond")
	if cond.Widget != WidgetRadio || !cond.Mandatory {
		t.Errorf("radio group should be one mandatory field: %+v", cond)
	}
	if !reflect.DeepEqual(cond.Domain, []string{"new", "used"}) {
		t.Errorf("radio domain = %v", cond.Domain)
	}
	if cond.Default != "used" {
		t.Errorf("radio default = %q", cond.Default)
	}

	if got := f.MandatoryFields(); !reflect.DeepEqual(got, []string{"cond"}) {
		t.Errorf("mandatory = %v", got)
	}
	// The data fields not inferred mandatory (a submit button carries no
	// data).
	var opt []string
	for _, fl := range f.Fields {
		if !fl.Mandatory && fl.Widget != WidgetSubmit {
			opt = append(opt, fl.Name)
		}
	}
	want := map[string]bool{"make": true, "model": true, "pics": true, "region": true}
	if len(opt) != len(want) {
		t.Errorf("optional = %v", opt)
	}
	for _, o := range opt {
		if !want[o] {
			t.Errorf("unexpected optional field %q", o)
		}
	}
}

func TestFormRequiredAttrHint(t *testing.T) {
	doc := Parse([]byte(`<form action="/s"><input type=text name=q required></form>`))
	f := Forms(doc, "http://h/")[0]
	q, _ := f.Field("q")
	if !q.Mandatory {
		t.Error("required text field should be mandatory")
	}
}

func TestFormTextarea(t *testing.T) {
	doc := Parse([]byte(`<form action="/s"><textarea name=c>hello</textarea></form>`))
	f := Forms(doc, "http://h/")[0]
	c, ok := f.Field("c")
	if !ok || c.Widget != WidgetTextarea || c.Default != "hello" {
		t.Errorf("textarea field: %+v %v", c, ok)
	}
}

func TestDataTable(t *testing.T) {
	src := `
<table><tr><th>Make</th><th>Model</th><th>Price</th><th>More</th></tr>
<tr><td>ford</td><td>escort</td><td>$3,000</td><td><a href="/ad?id=1">Details</a> <a href="http://h/pic/1">Photo</a></td></tr>
<tr><td>jaguar</td><td>xj6</td><td>$15,000</td><td>sold</td></tr></table>
<table><tr><th>Empty</th></tr></table>`
	doc := Parse([]byte(src))
	rows := DataTable(doc, "http://h/list?page=2", "make", "price")
	if len(rows) != 2 {
		t.Fatalf("rows: %d", len(rows))
	}
	if !reflect.DeepEqual(rows[0].Cells, []string{"ford", "$3,000"}) || !reflect.DeepEqual(rows[1].Cells, []string{"jaguar", "$15,000"}) {
		t.Errorf("rows = %v", rows)
	}
	wantLinks := map[string]string{"Details": "http://h/ad?id=1", "Photo": "http://h/pic/1"}
	if !reflect.DeepEqual(rows[0].Links, wantLinks) {
		t.Errorf("links = %v, want %v", rows[0].Links, wantLinks)
	}
	// A row without links carries no map, and reads as one without entries.
	if rows[1].Links != nil || rows[1].Links["Details"] != "" {
		t.Errorf("linkless row has links %v", rows[1].Links)
	}
	if got := DataTable(doc, "http://h/", "nonexistent"); got != nil {
		t.Errorf("expected nil for missing header, got %v", got)
	}
	// A matching table with no body rows is still a data page.
	if got := DataTable(doc, "http://h/", "Empty"); got == nil || len(got) != 0 {
		t.Errorf("header-only table: got %v, want empty and non-nil", got)
	}
}

// TestRadioGroupSplitByOtherFields: the buttons of one radio group collapse
// into one Field wherever they stand in the form — also when other fields
// between them have made the field list grow in the meantime.
func TestRadioGroupSplitByOtherFields(t *testing.T) {
	src := `<form><input type=radio name=cond value=good>
<input type=hidden name=h1 value=1><input type=hidden name=h2 value=2><input type=text name=q>
<input type=radio name=cond value=fair checked><input type=radio name=other value=x>
<input type=radio name=cond value=poor></form>`
	forms := Forms(Parse([]byte(src)), "http://h/")
	if len(forms) != 1 || len(forms[0].Fields) != 5 {
		t.Fatalf("forms = %+v", forms)
	}
	cond, _ := forms[0].Field("cond")
	if want := []string{"good", "fair", "poor"}; !reflect.DeepEqual(cond.Domain, want) || cond.Default != "fair" {
		t.Errorf("cond = %+v, want domain %v and default fair", cond, want)
	}
}

func TestNestedLayoutTablesDoNotLeakRows(t *testing.T) {
	// A 1990s layout: the data table lives inside a layout table cell, and
	// a data cell itself contains a decorative inner table. Outer layout
	// rows and the inner decoration must not leak into the data rows.
	src := `
<table><tr><td>sidebar</td><td>
  <table>
    <tr><th>Make</th><th>Price</th></tr>
    <tr><td>ford</td><td>$3,000</td></tr>
    <tr><td><table><tr><td>badge</td></tr></table>jaguar</td><td>$15,000</td></tr>
  </table>
</td></tr></table>`
	doc := Parse([]byte(src))
	rows := DataTable(doc, "http://h/", "Make", "Price")
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2: %v", len(rows), rows)
	}
	if rows[0].Cells[0] != "ford" || rows[1].Cells[1] != "$15,000" {
		t.Errorf("rows = %v", rows)
	}
	if !strings.Contains(rows[1].Cells[0], "jaguar") {
		t.Errorf("inner decoration swallowed the cell text: %v", rows[1])
	}
	// Tables(): first (outer) table has one row of two layout cells; the
	// data table reports its own three rows; the badge table its one.
	tbls := Tables(doc)
	if len(tbls) != 3 {
		t.Fatalf("tables = %d, want 3", len(tbls))
	}
	if len(tbls[0]) != 1 || len(tbls[1]) != 3 || len(tbls[2]) != 1 {
		t.Errorf("row counts = %d/%d/%d, want 1/3/1", len(tbls[0]), len(tbls[1]), len(tbls[2]))
	}
}

func TestResolve(t *testing.T) {
	cases := []struct{ base, ref, want string }{
		{"http://h/a/b", "c", "http://h/a/c"},
		{"http://h/a/", "c", "http://h/a/c"},
		{"http://h/a", "/x", "http://h/x"},
		{"http://h/a", "http://i/y", "http://i/y"},
		{"http://h/a", "?q=1", "http://h/a?q=1"},
		{"://bad", "c", "c"},
	}
	for _, c := range cases {
		if got := Resolve(c.base, c.ref); got != c.want {
			t.Errorf("Resolve(%q,%q) = %q, want %q", c.base, c.ref, got, c.want)
		}
	}
}

// TestLentScansReadAsFresh: a page scanned into the buffers of one Page
// after another reads as a fresh Scan of it, whatever the Page held: more
// links, forms, fields or options, or fewer. Reset clears every buffer it
// keeps to its capacity, so an idle Page holds no string of the page it
// read, and lets go of a buffer over its bound.
func TestLentScansReadAsFresh(t *testing.T) {
	base := "http://newsday.example/classified/"
	wide := `<a href="/1">one</a><a href="/2">two</a><a href="/3">three</a>` +
		`<form name="wide" action="/w"><select name="s"><option>a</option><option>b</option><option>c</option></select>` +
		`<input type="radio" name="r" value="x"><input type="radio" name="r" value="y" checked>` +
		`<input type="checkbox" name="c" value="on" checked><input type="hidden" name="h" value="state">` +
		`<textarea name="t">note</textarea></form><form name="second" action="/s"><input name="q"></form>`
	narrow := `<a href="/only">only</a><form action="/n"><select name="s"><option>z</option></select></form>`
	docs := []*Node{Parse([]byte(newsdayLike)), Parse([]byte(wide)), Parse([]byte(narrow)), Parse([]byte("<p>no links</p>"))}
	for _, p := range fixturePages(t) {
		docs = append(docs, Parse(p))
	}
	var lent Page
	for round := 0; round < 2; round++ {
		for i, doc := range docs {
			ScanInto(doc, base, &lent)
			if want := Scan(doc, base); !samePage(lent, want) {
				t.Fatalf("round %d, page %d: a lent scan reads\n%+v\nwant\n%+v", round, i, lent, want)
			}
			if i%3 == 0 {
				lent.Reset(1 << 10)
			}
		}
	}
	ScanInto(docs[1], base, &lent)
	lent.Reset(1 << 10)
	if lent.Title != "" || lent.HasTable || len(lent.Links) != 0 || len(lent.Forms) != 0 || cap(lent.Forms) < 2 {
		t.Fatalf("Reset left %+v, want empty buffers, two forms' worth kept", lent)
	}
	if holdsAValue(lent) {
		t.Errorf("Reset kept a value in a buffer: %+v", lent)
	}
	ScanInto(docs[1], base, &lent)
	lent.Reset(2)
	if cap(lent.Links) != 0 || cap(lent.Forms) != 2 || cap(lent.Forms[:1][0].Fields) != 0 {
		t.Errorf("Reset(2) kept %d links, %d forms and %d fields of the first", cap(lent.Links), cap(lent.Forms), cap(lent.Forms[:1][0].Fields))
	}
}

// samePage reports whether two scans read the same, an empty list and no
// list alike.
func samePage(a, b Page) bool {
	return a.Title == b.Title && a.HasTable == b.HasTable && slices.Equal(a.Links, b.Links) &&
		slices.EqualFunc(a.Forms, b.Forms, func(f, g Form) bool {
			return f.Name == g.Name && f.Action == g.Action && f.Method == g.Method &&
				slices.EqualFunc(f.Fields, g.Fields, func(x, y Field) bool {
					return x.Name == y.Name && x.Widget == y.Widget && x.Default == y.Default &&
						x.MaxLength == y.MaxLength && x.Mandatory == y.Mandatory && slices.Equal(x.Domain, y.Domain)
				})
		})
}

// holdsAValue reports whether any buffer of p, up to its capacity, holds
// anything but zero values and the cleared buffers beneath them.
func holdsAValue(p Page) bool {
	for _, l := range p.Links[:cap(p.Links)] {
		if l != (Link{}) {
			return true
		}
	}
	for _, f := range p.Forms[:cap(p.Forms)] {
		if f.Name != "" || f.Action != "" || f.Method != "" {
			return true
		}
		for _, fl := range f.Fields[:cap(f.Fields)] {
			if fl.Name != "" || fl.Widget != "" || fl.Default != "" || fl.MaxLength != 0 || fl.Mandatory ||
				slices.ContainsFunc(fl.Domain[:cap(fl.Domain)], func(v string) bool { return v != "" }) {
				return true
			}
		}
	}
	return false
}
