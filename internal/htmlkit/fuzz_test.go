package htmlkit

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParse drives the lenient parser with arbitrary bytes: it must never
// panic, must terminate, and must produce the tree the reference parser
// does, child for child and parent pointer for parent pointer. It also
// holds the other allocation-lean paths to the reference implementations
// in reference_test.go: the token stream (every tag and
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
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		doc := Parse(data)
		if doc.Parent != nil {
			t.Fatal("the document has a parent")
		}
		sameTree(t, doc, refParse(data))
		// Extraction helpers must also be total.
		_ = Forms(doc, "http://fuzz.example/")
		_ = Tables(doc)

		if got, want := tokens(t, string(data)), refTokens(data); !reflect.DeepEqual(got, want) {
			t.Fatalf("token stream differs from the reference\n got: %#v\nwant: %#v", got, want)
		}
		doc.Walk(func(n *Node) bool {
			if got, want := n.Text(), refText(n); got != want {
				t.Fatalf("Text() = %q, reference %q", got, want)
			}
			return true
		})
		const base = "http://fuzz.example/dir/page?x=1"
		page := Scan(doc, base)
		if want := refLinks(doc, base); !reflect.DeepEqual(page.Links, want) {
			t.Fatalf("Scan links = %#v, reference %#v", page.Links, want)
		}
		if want := Title(doc); page.Title != want {
			t.Fatalf("Scan title = %q, reference %q", page.Title, want)
		}
		if want := doc.Find("table") != nil; page.HasTable != want {
			t.Fatalf("Scan HasTable = %v, reference %v", page.HasTable, want)
		}
		if want := len(doc.FindAll("form")); len(page.Forms) != want {
			t.Fatalf("Scan found %d forms, FindAll %d", len(page.Forms), want)
		}
	})
}

// sameTree fails unless got has the shape of want, the reference parse of
// the same bytes: the same nodes with the same children in the same order,
// every child pointing back at its parent, and every child list exactly
// sized (a caller's append must not reach a neighbouring list).
func sameTree(t *testing.T, got, want *Node) {
	t.Helper()
	if got.Type != want.Type || got.Data != want.Data || !reflect.DeepEqual(got.Attrs, want.Attrs) {
		t.Fatalf("node %v %q %v, reference %v %q %v", got.Type, got.Data, got.Attrs, want.Type, want.Data, want.Attrs)
	}
	if len(got.Children) != len(want.Children) {
		t.Fatalf("<%s> has %d children, reference %d", got.Data, len(got.Children), len(want.Children))
	}
	if cap(got.Children) != len(got.Children) {
		t.Fatalf("<%s>: child list has len %d but cap %d", got.Data, len(got.Children), cap(got.Children))
	}
	for i, c := range got.Children {
		if c.Parent != got {
			t.Fatalf("child %d of <%s> does not point back at it", i, got.Data)
		}
		sameTree(t, c, want.Children[i])
	}
}

// FuzzResolve holds the page resolver — base parsed once, plain references
// concatenated or passed through — to Resolve, which parses both URLs
// every time.
func FuzzResolve(f *testing.F) {
	bases := []string{
		"http://site.example/", "http://site.example/dir/page?x=1#frag", "https://u:p@Site.Example:8080/a/b",
		"http://site.example", "//site.example/x", "/only/a/path", "mailto:someone@site.example", "file:///tmp/x",
		"", "http://[::1]/x", "%zz", "http://site.example/%7Euser/",
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
		r := resolver{raw: base}
		for i := 0; i < 2; i++ { // the second call takes the parsed-base path
			if got, want := r.resolve(ref), Resolve(base, ref); got != want {
				t.Fatalf("resolve(%q, %q) = %q, Resolve gives %q", base, ref, got, want)
			}
		}
	})
}

// FuzzDecodeEntities checks the decoder is total and never grows the
// input unboundedly (a decoded entity is never longer than its reference).
func FuzzDecodeEntities(f *testing.F) {
	for _, s := range []string{"&amp;", "&#65;", "&#x41;", "&bogus;", "a&b", "&&&&", "&#xffffffffff;"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		out := DecodeEntities(s)
		if len(out) > len(s)+4 {
			t.Fatalf("decode grew input: %d → %d", len(s), len(out))
		}
	})
}
