package htmlkit

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// FuzzParse drives the lenient parser with arbitrary bytes: it must never
// panic, must terminate, must size the document from the counts
// bytes.Count gives, and must produce the document the reference tree
// parser does, node for node: type, data, attributes, parent and child
// order. It also holds the other allocation-lean paths to the reference
// implementations in reference_test.go: the token stream (every tag and
// attribute name lower-cased from its source bytes, every text run and
// attribute value entity-decoded), Node.Text, and the one-walk Scan. Run
// with `go test -fuzz=FuzzParse ./internal/htmlkit` to search beyond the
// seed corpus.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"<html><body>hello</body></html>",
		"<table><tr><td>a<td>b<tr><td>c</table>",
		"<a href='x",
		"<p><b><i>misnested</b></i>",
		"<!DOCTYPE html><!-- c --><script>if(a<b){}</script>",
		"<form><select><option>x<option value='y'>z</select></form>",
		"&amp;&#65;&#x41;&nope;&",
		"<<<>>><//><1>",
		strings.Repeat("<div>", 100),
		// One for each way an element closes: implied by a start tag (one
		// level and two), by its own end tag, by an outer end tag several
		// levels up, by a stray end tag (not at all), and by end of input.
		"<table><tr><td>a<tr><td>b</table>after",
		"<ul><li>a<li>b<ul><li>c</ul><li>d</ul>",
		"<div><p><b><i>deep</div>tail</i></b>",
		"</td>x</tr><p>y</span>z",
		"<html><body><table><tr><td><a href=x>unclosed",
		// Mixed-case tag and attribute names, known and unknown.
		"<TABLE Border=1><Tr><TD ALIGN=left>a</tD><td NoWrap>b</TABLE><BlockQuote CITE=x>q</BLOCKQUOTE>",
		"<A HREF='/x' Name=n>up</A><a HrEf=\"http://h.example/p?q=1\">mixed</a><Ünï Çödé=1>u</Ünï>",
		// Entities in attribute values and text, good and bad.
		"<a href=\"/cgi?a=1&amp;b=2&c=3\" title='&quot;q&quot; &#65;&#x42; &bogus; &'>x &lt; y &amp;&amp; z</a>",
		"<input value=&amp;unquoted&gt; name=\"a&#0;b\"><option value='&nbsp;'>&nbsp; &copy; </option>",
		// Unterminated tags, attributes and comments.
		"<a href=\"never closed",
		"<table><tr><td>cell<td attr",
		"<p>text<b",
		"<!-- unterminated comment <a href=x>",
		"<script>var s = '</SCRIPT'; <a href=y>z</a>",
		// White space of every kind inside and between text nodes.
		"<p> a \t\n b\u00a0c\u2003d <b> e </b>f<i></i> g\r\n</p><td>one</td><td> two  words </td>",
		"<title> T </title><title>second</title><form action=go><a href=in>inside <b>form</b></a><table></table></form>",
		// Text runs that start with a byte outside printable ASCII, blank
		// or not, where the parser cannot skip the blank test.
		"<p>\vx</p><p>\fy</p><p>\u00a0z</p><p>\u00a0\u00a0</p><p>\v</p><p>\x7f</p><p>&nbsp;</p><p>&nbsp;w</p>",
		"<b>x</b>\u00a0<i>\u2003</i>\x85",
		// Input that ends inside a construct: an end tag, a quoted value.
		"<p>x</",
		"</",
		"<a href='/x>y</a>",
		"<a title=\"t\" href=\"/x>y</a>",
		// Empty comments that end at their '>', and their near misses.
		"<!--><a href=/x>x</a>",
		"<!---><a href=/x>x</a>",
		"<!----><a href=/x>x</a><!-- -->",
		"<!--",
		"<!---",
		// Comments closed by "--!>", and a "--!" that closes nothing.
		"<!-- x --!><a href=/after>after</a>",
		"<!----!><!-- a ---!><!-- --!-- b --!--><!-- --!x -->",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if tags, ends := countTags(data); tags != bytes.Count(data, []byte("<")) || ends != bytes.Count(data, []byte("</")) {
			t.Fatalf("countTags = %d, %d; bytes.Count gives %d, %d", tags, ends, bytes.Count(data, []byte("<")), bytes.Count(data, []byte("</")))
		}
		doc := Parse(data)
		if _, ok := doc.Parent(); ok {
			t.Fatal("the document has a parent")
		}
		ref := refParse(data)
		sameTree(t, *doc, ref)
		// Extraction helpers must also be total.
		_ = Forms(doc, "http://fuzz.example/")
		_ = Tables(doc)

		if got, want := tokens(t, string(data)), refTokens(data); !reflect.DeepEqual(got, want) {
			t.Fatalf("token stream differs from the reference\n got: %#v\nwant: %#v", got, want)
		}
		refNodes := ref.preorder()
		doc.Walk(func(n Node) bool {
			if got, want := n.Text(), refText(refNodes[n.i]); got != want {
				t.Fatalf("Text() = %q, reference %q", got, want)
			}
			return true
		})
		const base = "http://fuzz.example/dir/page?x=1"
		page := Scan(doc, base)
		if want := refLinks(ref); !reflect.DeepEqual(page.Links, want) {
			t.Fatalf("Scan links = %#v, reference %#v", page.Links, want)
		}
		if want := refTitle(ref); page.Title != want || Title(doc) != want {
			t.Fatalf("Scan title = %q, Title %q, reference %q", page.Title, Title(doc), want)
		}
		if want := len(ref.FindAll("table")) > 0; page.HasTable != want {
			t.Fatalf("Scan HasTable = %v, reference %v", page.HasTable, want)
		}
		if want := len(ref.FindAll("form")); len(page.Forms) != want {
			t.Fatalf("Scan found %d forms, reference %d", len(page.Forms), want)
		}
	})
}

// attrsOf lists a node's attributes, nil when it has none.
func attrsOf(n Node) []Attr {
	var out []Attr
	for _, a := range n.d.attrsAt(n.i) {
		out = append(out, Attr{Name: n.d.str(a.name), Value: n.d.str(a.value)})
	}
	return out
}

// sameTree fails unless the document under got has the shape of want, the
// reference parse of the same bytes: the same nodes in the same document
// order, each with the same type, data and attributes, the same parent and
// the same children in the same order — read both off the arrays and
// through Parent, FirstChild and NextSibling.
func sameTree(t *testing.T, got Node, want *treeNode) {
	t.Helper()
	wantNodes := want.preorder()
	index := make(map[*treeNode]int32, len(wantNodes))
	for k, w := range wantNodes {
		index[w] = got.i + int32(k)
	}
	if n := got.node().end - got.i; int(n) != len(wantNodes) {
		t.Fatalf("the subtree holds %d nodes, reference %d", n, len(wantNodes))
	}
	for k, w := range wantNodes {
		n := Node{got.d, got.i + int32(k)}
		if n.Type() != w.Type || n.Data() != w.Data || !reflect.DeepEqual(attrsOf(n), w.Attrs) {
			t.Fatalf("node %d: %v %q %v, reference %v %q %v", n.i, n.Type(), n.Data(), attrsOf(n), w.Type, w.Data, w.Attrs)
		}
		if p, ok := n.Parent(); k > 0 && (!ok || p.i != index[w.Parent]) {
			t.Fatalf("node %d <%s>: parent %d (%v), reference %d", n.i, n.Data(), p.i, ok, index[w.Parent])
		}
		c, ok := n.FirstChild()
		for i, wc := range w.Children {
			if !ok || c.i != index[wc] {
				t.Fatalf("node %d <%s>: child %d is %d (%v), reference %d", n.i, n.Data(), i, c.i, ok, index[wc])
			}
			if p, _ := c.Parent(); p.i != n.i {
				t.Fatalf("node %d: child %d does not point back at it", n.i, c.i)
			}
			c, ok = c.NextSibling()
		}
		if ok {
			t.Fatalf("node %d <%s>: more than the reference's %d children", n.i, n.Data(), len(w.Children))
		}
	}
}

// FuzzDataTable holds FindTable, the table navigation reads in place, to
// DataTable, the copy it replaced, and DataTable to the map-based
// implementation before it (refDataTable, over the reference tree): the
// same table found or none, an empty table kept apart from none, the same
// rows, each row's cells the old row's cells of the requested columns in
// request order, and each link DataTable resolved the one FindTable's Link
// gives by the same text. The columns are the "|"-prefixed fields of cols:
// "" asks for none, "|" for one empty header; each is also tried as a link
// text. Run with `go test -fuzz=FuzzDataTable ./internal/htmlkit`.
func FuzzDataTable(f *testing.F) {
	seeds := []struct{ doc, cols string }{
		{"", ""},
		{"<p>no table</p>", "|make"},
		{"<table></table>", ""},
		{"<table><tr><th>Make</th><th>Price</th></tr></table>", "|make|price"},
		{"<table><tr><th>Make</th><th>Price</th></tr><tr><td>ford<td>$3,000<tr><td>saab</table>", "|price|make"},
		{"<table><tr><th>Make<th>Price</tr><tr><td>ford<td>$3,000</table>", ""},
		{"<table><tr><th>Make</th><th>MAKE</th><th> make </th></tr><tr><td>a<td>b<td>c</table>", "|Make|make"},
		{"<table><tr><th>Make</th></tr><tr></tr><tr><td>x</td><td>extra</td></tr></table>", "|make|make"},
		{"<table><tr><td>layout<td><table><tr><th>Make<th>Price<tr><td><table><tr><td>badge</table>jaguar<td>$9</table></table>", "|make|price"},
		{"<table><tr><th>Make</th><th>More</th></tr><tr><td>ford</td><td><a href='/ad?id=1'>Details</a> <a href=http://h/p>Photo</a><a>bare</a></td></tr></table>", "|make"},
		{"<table><tr><th>Make<th>More<tr><td><a href=x>Same</a><td><a href=y>Same</a></table>", "|more"},
		// Non-ASCII case: capital sharp s, long s, the Kelvin sign, final
		// sigma, dotted capital I, and invalid bytes beside U+FFFD.
		{"<table><tr><th>ÜBER</th><th>STRAẞE</th><th>ſ</th><th>K</th><th>ΣΊΣΥΦΟΣ</th></tr><tr><td>1<td>2<td>3<td>4<td>5</table>", "|über|straße|s|k|σίσυφος"},
		{"<table><tr><th>\xff\xfe</th><th>�</th><th>İ</th></tr><tr><td>1<td>2<td>3</table>", "|�|\xfd|i̇|i"},
		{"<table><tr><th></th><th>Make</th></tr><tr><td>blank<td>ford</table>", "|"},
		{"<table><tr><th>a</th></tr><tr><td>1</td></tr></table><table><tr><th>b</th></tr><tr><td>2</td></tr></table>", "|b"},
		{"<table><thead><tr><th>Make</th></tr></thead><tbody><tr><td>ford</td></tr></tbody><tfoot><tr><td>total</td></tr></tfoot></table>", "|MAKE"},
	}
	for _, s := range seeds {
		f.Add([]byte(s.doc), s.cols)
	}
	f.Fuzz(func(t *testing.T, data []byte, cols string) {
		columns := strings.Split(cols, "|")[1:]
		const base = "http://fuzz.example/dir/list?page=2"
		doc := Parse(data)
		got := DataTable(doc, base, columns...)
		want := refDataTable(refParse(data), base, columns...)
		if (got == nil) != (want == nil) || len(got) != len(want) {
			t.Fatalf("DataTable(%q) = %d rows (nil: %v), reference %d (nil: %v)", columns, len(got), got == nil, len(want), want == nil)
		}
		tbl, found := FindTable(doc, columns, nil, nil)
		if found != (want != nil) || tbl.Len() != len(want) {
			t.Fatalf("FindTable(%q) = %d rows (found: %v), reference %d (nil: %v)", columns, tbl.Len(), found, len(want), want == nil)
		}
		var row []int32
		for i, w := range want {
			row = tbl.Row(i, row)
			cells := make([]string, len(columns))
			for k, c := range columns {
				cells[k] = w.Cells[strings.ToLower(c)]
				if got := tbl.Cell(row, k); got != cells[k] {
					t.Fatalf("row %d of %q: FindTable cell %d %q, reference %q", i, columns, k, got, cells[k])
				}
			}
			if !reflect.DeepEqual(got[i].Cells, cells) || cap(got[i].Cells) != len(columns) {
				t.Fatalf("row %d of %q: cells %q (cap %d), reference %q", i, columns, got[i].Cells, cap(got[i].Cells), cells)
			}
			if !reflect.DeepEqual(got[i].Links, w.Links) {
				t.Fatalf("row %d: links %v, reference %v", i, got[i].Links, w.Links)
			}
			names := slices.Clone(columns)
			for name := range w.Links {
				names = append(names, name)
			}
			for _, name := range names {
				href, ok := tbl.Link(row, name)
				addr, want := w.Links[name]
				if ok != want || ok && Resolve(base, href) != addr {
					t.Fatalf("row %d: Link(%q) = %q (%v), resolved %q; reference %q (%v)", i, name, href, ok, Resolve(base, href), addr, want)
				}
			}
		}
	})
}

// FuzzResolve holds the page resolver — base parsed once, plain references
// concatenated or passed through — and Resolve, which is one resolver, to
// refResolve, which parses both URLs every time.
func FuzzResolve(f *testing.F) {
	bases := []string{
		"http://site.example/", "http://site.example/dir/page?x=1#frag", "https://u:p@Site.Example:8080/a/b",
		"http://site.example", "//site.example/x", "/only/a/path", "mailto:someone@site.example", "file:///tmp/x",
		"", "http://[::1]/x", "%zz", "http://site.example/%7Euser/",
		// Bases on either side of the plain test: an upper-case scheme or
		// host, a port, userinfo, an IPv6 literal, no path, a path or query
		// that is not plain, and a host net/url refuses, which net/url must
		// read; and plain ones whose origin is sliced off.
		"HTTP://site.example/x", "http://Site.example/x", "http://SITE.EXAMPLE/", "http://site.example:8080/x",
		"http://u@site.example/x", "http://[::1]:80/", "http://site.example?q=1", "http://site.example#f",
		"http://site.example/a b", "http://site.example/a/../b", "http://site.example/a/./b", "http://site.example//x",
		"http://site.example/%zz", "http://site.example/x#frag", "http://site.example/x?q=%zz", "http://site.example/x\x7f",
		"http://site_example/x", "http:///x", "http://%41/x", "https://site.example/x", "http://a.b-c.9/p?x=1&y=2",
	}
	refs := []string{
		"/help", "/cgi-bin/q?make=ford&model=escort", "/", "/a/./b", "/a/../b", "/a//b", "/.hidden", "/a.b/c.html",
		"/q?", "/q?a=b?c", "/q?a=%41+b", "/p%41th", "/sp ace", "/frag#x", "//other.example/x", "/~user/",
		"http://other.example/p?q=1", "https://Other.Example/p", "http://other.example", "http://other.example:80/p",
		"http:///p", "HTTP://other.example/p", "http://other.example/a/../b", "http://other.example/p?q=a b",
		"rel/path", "../up", "?only=query", "#frag", "", "mailto:x@y", "http://bad host/", "/ctl\x7f", ":", "/q?a=b&amp;c",
	}
	for _, b := range bases {
		for _, r := range refs {
			f.Add(b, r)
		}
	}
	f.Fuzz(func(t *testing.T, base, ref string) {
		r := newResolver(base)
		for i := 0; i < 2; i++ { // the second call takes the parsed-base path
			if got, want := r.resolve(ref), refResolve(base, ref); got != want {
				t.Fatalf("resolve(%q, %q) = %q, refResolve gives %q", base, ref, got, want)
			}
		}
		if got, want := Resolve(base, ref), refResolve(base, ref); got != want {
			t.Fatalf("Resolve(%q, %q) = %q, refResolve gives %q", base, ref, got, want)
		}
	})
}

// FuzzDecodeEntities holds the decoder, in text and in an attribute value,
// to refDecodeEntities (numbers through strconv, legacy names tried
// longest first) and checks it never grows the input: a decoded reference
// is never longer than the reference.
func FuzzDecodeEntities(f *testing.F) {
	for _, s := range []string{"&amp;", "&#65;", "&#x41;", "&bogus;", "a&b", "&&&&", "&#xffffffffff;",
		"&#+65;&#x+41;&#-65;&#+-1;&#x-1;&#+;", "&#xD800;&#1114111;&#1114112;&#x10FFFF;&#0000065;&#X41;",
		"&copy 1999 &ampx=1&lt=&LT&middotx&notin;"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		out := DecodeEntities(s)
		if want := refDecodeEntities(s, false); out != want {
			t.Fatalf("DecodeEntities(%q) = %q, reference %q", s, out, want)
		}
		attr := string(appendDecoded(nil, []byte(s), true))
		if want := refDecodeEntities(s, true); attr != want {
			t.Fatalf("attribute value %q decodes to %q, reference %q", s, attr, want)
		}
		if len(out) > len(s) || len(attr) > len(s) {
			t.Fatalf("decode grew input: %d → %d, %d", len(s), len(out), len(attr))
		}
	})
}
