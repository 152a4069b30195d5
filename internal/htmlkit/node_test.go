package htmlkit

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// Parent returns the node's parent, and false for the document node. A
// node records no parent, so Parent descends to it from the document node.
func (n Node) Parent() (Node, bool) {
	if n.i == 0 {
		return Node{}, false
	}
	p := int32(0)
	for c := p + 1; c != n.i; {
		if n.i < n.d.nodes[c].end {
			p, c = c, c+1 // n is in c's subtree
		} else {
			c = n.d.nodes[c].end
		}
	}
	return Node{n.d, p}, true
}

// FirstChild returns the node's first child, and false when it has none.
func (n Node) FirstChild() (Node, bool) {
	return Node{n.d, n.i + 1}, n.i+1 < n.node().end
}

// NextSibling returns the node's next sibling, and false when it is the
// last child of its parent or the document node.
func (n Node) NextSibling() (Node, bool) {
	p, ok := n.Parent()
	if !ok {
		return Node{}, false
	}
	end := n.node().end
	return Node{n.d, end}, end < p.node().end
}

func TestParseTree(t *testing.T) {
	doc := Parse([]byte(`<html><head><title>T</title></head><body><p>one<p>two</body></html>`))
	if got := Title(doc); got != "T" {
		t.Errorf("Title = %q", got)
	}
	ps := doc.FindAll("p")
	if len(ps) != 2 {
		t.Fatalf("auto-close of <p> failed: %d paragraphs", len(ps))
	}
	if ps[0].Text() != "one" || ps[1].Text() != "two" {
		t.Errorf("paragraph texts: %q %q", ps[0].Text(), ps[1].Text())
	}
}

func TestParseVoidElements(t *testing.T) {
	doc := Parse([]byte(`<p>a<br>b<img src=x>c</p>`))
	p, ok := doc.Find("p")
	if !ok {
		t.Fatal("no p")
	}
	if got := p.Text(); got != "a b c" {
		t.Errorf("text = %q, want %q", got, "a b c")
	}
	img, ok := p.Find("img")
	if _, hasChild := img.FirstChild(); !ok || hasChild {
		t.Error("img should be a childless element inside p")
	}
}

func TestParseTableAutoClose(t *testing.T) {
	// 1990s-style table with no </td>/</tr>.
	src := `<table><tr><td>a<td>b<tr><td>c<td>d</table>`
	tbls := Tables(Parse([]byte(src)))
	if len(tbls) != 1 {
		t.Fatalf("tables: %d", len(tbls))
	}
	want := [][]string{{"a", "b"}, {"c", "d"}}
	got := tbls[0]
	if len(got) != 2 || got[0][0] != "a" || got[0][1] != "b" || got[1][0] != "c" || got[1][1] != "d" {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestParseMisnesting(t *testing.T) {
	// <b><i></b></i> — classic mis-nesting; must not lose text or panic.
	doc := Parse([]byte(`<b><i>x</b></i>y`))
	if got := doc.Text(); got != "x y" {
		t.Errorf("text = %q", got)
	}
}

func TestParseStrayEndTags(t *testing.T) {
	doc := Parse([]byte(`</div>hello</p></table>`))
	if got := doc.Text(); got != "hello" {
		t.Errorf("text = %q", got)
	}
}

func TestParseUnclosedAtEOF(t *testing.T) {
	doc := Parse([]byte(`<html><body><div><span>deep`))
	if got := doc.Text(); got != "deep" {
		t.Errorf("text = %q", got)
	}
	if _, ok := doc.Find("span"); !ok {
		t.Error("span lost")
	}
}

func TestWalkPrune(t *testing.T) {
	doc := Parse([]byte(`<div><p>in</p></div><p>out</p>`))
	var seen []string
	doc.Walk(func(n Node) bool {
		if n.IsElement("div") {
			return false // prune
		}
		if n.Type() == TextNode {
			seen = append(seen, n.Data())
		}
		return true
	})
	if len(seen) != 1 || seen[0] != "out" {
		t.Errorf("seen = %v", seen)
	}
}

func TestNestedListAutoClose(t *testing.T) {
	doc := Parse([]byte(`<ul><li>a<li>b<li>c</ul>`))
	if n := len(doc.FindAll("li")); n != 3 {
		t.Errorf("li count = %d, want 3", n)
	}
	// Items must be siblings, not nested.
	ul, _ := doc.Find("ul")
	count := 0
	for c, ok := ul.FirstChild(); ok; c, ok = c.NextSibling() {
		if c.IsElement("li") {
			count++
		}
	}
	if count != 3 {
		t.Errorf("li siblings under ul = %d, want 3", count)
	}
}

// Property: Parse never panics and yields a tree whose every node's children
// point back to it, and whose every node is its own parent's child, for
// arbitrary input.
func TestParseNeverPanicsAndIsWellFormed(t *testing.T) {
	prop := func(b []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		doc := Parse(b)
		wellFormed := true
		children := 0
		doc.Walk(func(n Node) bool {
			for c, ok := n.FirstChild(); ok; c, ok = c.NextSibling() {
				if p, _ := c.Parent(); p != n {
					wellFormed = false
				}
				children++
			}
			return true
		})
		// Every node but the document is one node's child.
		return wellFormed && children == len(doc.d.nodes)-1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// outline renders a tree as nested tag(children) text, the form the
// closing cases below are written in.
func outline(n Node) string {
	switch n.Type() {
	case TextNode:
		return strconv.Quote(n.Data())
	case CommentNode:
		return "<!--" + n.Data() + "-->"
	}
	var kids []string
	for c, ok := n.FirstChild(); ok; c, ok = c.NextSibling() {
		kids = append(kids, outline(c))
	}
	s := strings.Join(kids, " ")
	if n.Type() == DocumentNode {
		return s
	}
	return n.Data() + "(" + s + ")"
}

// TestParseClosesElements has a case for each way an open element comes to
// be closed — each was a pop of its own before closeTo — and holds the
// result to the expected tree and to the reference parser's.
func TestParseClosesElements(t *testing.T) {
	for _, tc := range []struct{ name, src, want string }{
		{"start tag closes one level", `<ul><li>a<li>b</ul>`, `ul(li("a") li("b"))`},
		{"tr closes td and then tr, not table", `<table><tr><td>a<tr><td>b</table>x`,
			`table(tr(td("a")) tr(td("b"))) "x"`},
		{"start tag with nothing to close", `<div><li>a</div>`, `div(li("a"))`},
		{"auto-close stops at a non-matching parent", `<li>a<b><li>c`, `li("a" b(li("c")))`},
		{"end tag closes its element", `<p><b>x</b>y</p>z`, `p(b("x") "y") "z"`},
		{"end tag closes several levels", `<div><p><b><i>deep</div>tail`, `div(p(b(i("deep")))) "tail"`},
		{"mis-nested end tags", `<b><i>x</b></i>y`, `b(i("x")) "y"`},
		{"stray end tags are dropped", `</td>x</tr><p>y</span>z`, `"x" p("y" "z")`},
		{"unclosed tail", `<html><body><table><tr><td><a href=x>open`, `html(body(table(tr(td(a("open"))))))`},
		{"void and self-closing elements hold nothing", `<p>a<br>b<img/>c<div/>d`, `p("a" br() "b" img() "c" div() "d")`},
		{"nothing at all", ``, ``},
	} {
		doc := Parse([]byte(tc.src))
		if got := outline(*doc); got != tc.want {
			t.Errorf("%s: %s\n got %s\nwant %s", tc.name, tc.src, got, tc.want)
		}
		sameTree(t, *doc, refParse([]byte(tc.src)))
	}
}
