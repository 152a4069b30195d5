package htmlkit

import (
	"slices"
	"strings"
	"unicode"
)

// NodeType discriminates tree nodes.
type NodeType uint8

// Node types in the parsed tree.
const (
	DocumentNode NodeType = iota
	ElementNode
	TextNode
	CommentNode
)

// Node is one node of the lenient parse tree.
type Node struct {
	Type     NodeType
	Data     string // tag name for elements, content for text/comments
	Attrs    []Attr
	Parent   *Node
	Children []*Node
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// AttrOr returns the attribute value or def when absent.
func (n *Node) AttrOr(name, def string) string {
	if v, ok := n.Attr(name); ok {
		return v
	}
	return def
}

// IsElement reports whether n is an element with the given tag name.
func (n *Node) IsElement(tag string) bool {
	return n.Type == ElementNode && n.Data == tag
}

// Walk visits n and all descendants in document order. Returning false from
// fn prunes the subtree below the current node.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// FindAll returns all descendant elements (including n itself) with the
// given tag name, in document order.
func (n *Node) FindAll(tag string) []*Node {
	var out []*Node
	n.Walk(func(m *Node) bool {
		if m.IsElement(tag) {
			out = append(out, m)
		}
		return true
	})
	return out
}

// Find returns the first descendant element with the given tag, or nil.
func (n *Node) Find(tag string) *Node {
	all := n.FindAll(tag)
	if len(all) == 0 {
		return nil
	}
	return all[0]
}

// Text returns the concatenated text content of the subtree, with runs of
// whitespace collapsed to single spaces and leading/trailing space trimmed.
func (n *Node) Text() string {
	var only string
	nodes, size := 0, 0
	n.Walk(func(m *Node) bool {
		if m.Type == TextNode {
			only = m.Data
			nodes++
			size += len(m.Data) + 1
		}
		return true
	})
	if nodes == 1 {
		// The usual cell, anchor or title: one text node, whose content is
		// its own normal form but for the space around it.
		if t := strings.TrimSpace(only); collapsed(t) {
			return t
		}
	}
	var sb strings.Builder
	sb.Grow(size)
	n.Walk(func(m *Node) bool {
		if m.Type == TextNode {
			writeFields(&sb, m.Data)
		}
		return true
	})
	return sb.String()
}

// collapsed reports whether t, already trimmed, is its own normal form: its
// only white space is single ' ' characters between words.
func collapsed(t string) bool {
	afterSpace := false
	for _, r := range t {
		if unicode.IsSpace(r) && (r != ' ' || afterSpace) {
			return false
		}
		afterSpace = r == ' '
	}
	return true
}

// writeFields appends the white-space-separated fields of s to sb, each
// preceded by a single space unless it is the first thing written.
func writeFields(sb *strings.Builder, s string) {
	start := -1 // where the field being read began, or -1 between fields
	for i, r := range s {
		if space := unicode.IsSpace(r); space && start >= 0 {
			writeField(sb, s[start:i])
			start = -1
		} else if !space && start < 0 {
			start = i
		}
	}
	if start >= 0 {
		writeField(sb, s[start:])
	}
}

func writeField(sb *strings.Builder, f string) {
	if sb.Len() > 0 {
		sb.WriteByte(' ')
	}
	sb.WriteString(f)
}

// voidElements never have children; their start tag is the whole element.
var voidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// autoClose lists, for each tag, the open tags that an occurrence of it
// implicitly closes. This captures the common omitted-end-tag patterns in
// 1990s HTML (e.g. successive <li>, <tr>, <td>, <option> without closers).
var autoClose = map[string][]string{
	"li":     {"li"},
	"tr":     {"tr", "td", "th"},
	"td":     {"td", "th"},
	"th":     {"td", "th"},
	"option": {"option"},
	"p":      {"p"},
	"dt":     {"dt", "dd"},
	"dd":     {"dt", "dd"},
}

// Parse builds a lenient parse tree from src. It never fails: unclosed
// elements are closed at end of input, stray end tags are dropped, and
// mis-nesting is repaired by popping to the nearest matching open element.
func Parse(src []byte) *Node {
	z := Tokenizer{src: string(src)}
	// Nodes are carved from slabs, so a document costs an allocation per
	// slab and not per node. A full slab is replaced, never grown: node
	// pointers stay valid. The first holds a node for every 24 bytes, which
	// is most of a page of prose and forms; each further one is half the
	// size of the last, so a dense data table takes two or three.
	slab := make([]Node, 0, 8+len(src)/24)
	newNode := func(typ NodeType, data string, attrs []Attr) *Node {
		if len(slab) == cap(slab) {
			slab = make([]Node, 0, max(cap(slab)/2, 8))
		}
		slab = append(slab, Node{Type: typ, Data: data, Attrs: attrs})
		return &slab[len(slab)-1]
	}
	// A child list is built once, exactly sized, when its element closes.
	// Until then the children of every open element wait on one scratch
	// stack: those of stack[i] begin at pending[base[i]], and only the
	// innermost open element's run grows. Finished lists are carved from
	// slabs sized like the node slabs (every node but the document is in
	// exactly one list).
	doc := newNode(DocumentNode, "", nil)
	stack := append(make([]*Node, 0, 16), doc)
	base := append(make([]int, 0, 16), 0)
	pending := make([]*Node, 0, 64)
	kids := make([]*Node, 0, cap(slab))
	add := func(c *Node) {
		c.Parent = stack[len(stack)-1]
		pending = append(pending, c)
	}
	// closeTo closes open elements until only depth remain; it is the one
	// place that pops.
	closeTo := func(depth int) {
		for i := len(stack) - 1; i >= depth; i-- {
			if run := pending[base[i]:]; len(run) > 0 {
				if len(run) > cap(kids)-len(kids) {
					kids = make([]*Node, 0, max(cap(kids)/2, len(run), 8))
				}
				at := len(kids)
				kids = append(kids, run...)
				// Three-index: an append by a caller reallocates and
				// cannot run into the next element's list.
				stack[i].Children = kids[at:len(kids):len(kids)]
			}
			pending = pending[:base[i]]
		}
		stack, base = stack[:depth], base[:depth]
	}

	for {
		tok, ok := z.Next()
		if !ok {
			break
		}
		switch tok.Type {
		case TextToken:
			if strings.TrimSpace(tok.Data) == "" {
				continue
			}
			add(newNode(TextNode, tok.Data, nil))
		case CommentToken:
			add(newNode(CommentNode, tok.Data, nil))
		case DoctypeToken:
			// Ignored; the webbase does not need doctype information.
		case StartTagToken, SelfClosingTagToken:
			// A start tag closes the innermost run of elements it implies
			// the end of: a new <tr> closes an open <td> and then an open
			// <tr>, but never escapes the enclosing <table>.
			if closes, ok := autoClose[tok.Data]; ok {
				d := len(stack)
				for d > 1 && slices.Contains(closes, stack[d-1].Data) {
					d--
				}
				closeTo(d)
			}
			el := newNode(ElementNode, tok.Data, tok.Attrs)
			add(el)
			if tok.Type == StartTagToken && !voidElements[tok.Data] {
				stack = append(stack, el)
				base = append(base, len(pending))
			}
		case EndTagToken:
			// Pop to the matching open element if one exists; otherwise
			// drop the stray end tag.
			for i := len(stack) - 1; i >= 1; i-- {
				if stack[i].Data == tok.Data {
					closeTo(i)
					break
				}
			}
		}
	}
	closeTo(0)
	return doc
}
