package htmlkit

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"

	"webbase/internal/lend"
)

// NodeType discriminates document nodes.
type NodeType uint8

// Node types in a parsed document.
const (
	DocumentNode NodeType = iota
	ElementNode
	TextNode
	CommentNode
)

// document is a parsed page: one string and two arrays without a pointer
// in them, so the collector scans a handful of words however long the page.
// Nodes are stored in document order, so a node's subtree is the run of
// nodes from it to its end: its first child, if any, is the next node, and
// a child's next sibling is the node at that child's end. Indexes and
// offsets are int32: a document is smaller than 2 GiB.
type document struct {
	// text holds every string the document hands out — text runs, comment
	// bodies, attribute names and values, the names of tags outside
	// tagNames — each written once, entity-decoded and lower-cased as it
	// was read.
	text  string
	nodes []node
	attrs []attr
	root  Node // the document node, which Parse returns
}

// node is one node of a document, 16 bytes. Its index is into the
// document's nodes, its span into the document's text or attrs. A node
// records no parent: nothing after the parse reads one, and while the
// parser holds an element open its end field holds its parent instead.
type node struct {
	typ NodeType
	tag tagID // an element's id, or tagOther (every other node, and an element named in its attrs)
	end int32 // one past the node's last descendant
	// data is a text or comment node's content in the text, and an
	// element's attributes in attrs, in source order. The first attribute
	// of a tagOther element is its name, which Attr skips.
	data span
}

// attr is one attribute: its lower-cased name and entity-decoded value.
type attr struct{ name, value span }

// attrsAt returns the attributes of node i, none unless it is an element,
// and without the name slot of a tagOther element.
func (d *document) attrsAt(i int32) []attr {
	nd := &d.nodes[i]
	if nd.typ != ElementNode {
		return nil
	}
	start := nd.data.start
	if nd.tag == tagOther {
		start++
	}
	return d.attrs[start:nd.data.end]
}

// Node is a node of a parsed document: a handle on the document and the
// node's place in it. A Node is a small value; copying it copies the handle.
type Node struct {
	d *document
	i int32
}

func (d *document) str(s span) string { return d.text[s.start:s.end] }

func (n Node) node() *node { return &n.d.nodes[n.i] }

// Type returns the node's type.
func (n Node) Type() NodeType { return n.node().typ }

// Data returns the tag name of an element and the content of a text or
// comment node.
func (n Node) Data() string {
	nd := n.node()
	switch {
	case nd.typ != ElementNode:
		return n.d.str(nd.data)
	case nd.tag == tagOther:
		return n.d.str(n.d.attrs[nd.data.start].name)
	}
	return tagNames[nd.tag]
}

// Attr returns the value of the named attribute and whether it is present.
func (n Node) Attr(name string) (string, bool) {
	d := n.d
	for _, a := range d.attrsAt(n.i) {
		if d.str(a.name) == name {
			return d.str(a.value), true
		}
	}
	return "", false
}

// AttrOr returns the attribute value or def when absent.
func (n Node) AttrOr(name, def string) string {
	if v, ok := n.Attr(name); ok {
		return v
	}
	return def
}

// IsElement reports whether n is an element with the given tag name.
func (n Node) IsElement(tag string) bool {
	return n.Type() == ElementNode && n.Data() == tag
}

// Walk visits n and all descendants in document order. Returning false from
// fn prunes the subtree below the current node.
func (n Node) Walk(fn func(Node) bool) {
	for j, end := n.i, n.node().end; j < end; {
		if fn(Node{n.d, j}) {
			j++
		} else {
			j = n.d.nodes[j].end
		}
	}
}

// FindAll returns all descendant elements (including n itself) with the
// given tag name, in document order.
func (n Node) FindAll(tag string) []Node {
	var out []Node
	n.Walk(func(m Node) bool {
		if m.IsElement(tag) {
			out = append(out, m)
		}
		return true
	})
	return out
}

// Find returns the first descendant element (or n itself) with the given
// tag, and false when there is none.
func (n Node) Find(tag string) (Node, bool) {
	for j, end := n.i, n.node().end; j < end; j++ {
		if m := (Node{n.d, j}); m.IsElement(tag) {
			return m, true
		}
	}
	return Node{}, false
}

// Text returns the concatenated text content of the subtree, with runs of
// whitespace collapsed to single spaces and leading/trailing space trimmed.
func (n Node) Text() string { return n.d.textOf(n.i) }

func (d *document) textOf(i int32) string {
	var only string
	nodes, size := 0, 0
	sub := d.nodes[i:d.nodes[i].end]
	for k := range sub {
		if sub[k].typ == TextNode {
			only = d.str(sub[k].data)
			nodes++
			size += len(only) + 1
		}
	}
	if nodes == 1 {
		// The usual cell, anchor or title: one text node, whose content is
		// its own normal form but for the space around it.
		if t := strings.TrimSpace(only); collapsed(t) {
			return t
		}
	}
	var sb strings.Builder
	sb.Grow(size)
	for k := range sub {
		if sub[k].typ == TextNode {
			writeFields(&sb, d.str(sub[k].data))
		}
	}
	return sb.String()
}

// collapsed reports whether t, already trimmed, is its own normal form: its
// only white space is single ' ' characters between words.
func collapsed(t string) bool {
	afterSpace := false
	for _, r := range t {
		if isTextSpace(r) && (r != ' ' || afterSpace) {
			return false
		}
		afterSpace = r == ' '
	}
	return true
}

// isTextSpace is unicode.IsSpace, with ASCII answered inline.
func isTextSpace(r rune) bool {
	if r < utf8.RuneSelf {
		return r == ' ' || '\t' <= r && r <= '\r'
	}
	return unicode.IsSpace(r)
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

// Parse builds a lenient parse tree from src. It never fails: unclosed
// elements are closed at end of input, stray end tags are dropped, and
// mis-nesting is repaired by popping to the nearest matching open element.
// src is read only while Parse runs; the document keeps no reference to it.
func Parse(src []byte) *Node { return ParseInto(src, new(Arrays)) }

// Arrays is memory a caller lends a parse: the document and its node and
// attribute arrays. A document parsed into it (ParseInto) is valid until
// the caller takes the arrays back, by Reset or by parsing into them again.
// What only the parse reads is lent for the parse alone: the text is built
// and character references are decoded in buffers borrowed from the
// package's parseBuffers and returned when ParseInto returns. The text
// is not lent at all: it is copied out of its buffer at its exact length,
// every string read off the document points into it, and it outlives the
// arrays. The zero value holds no arrays yet.
type Arrays struct{ d document }

// ParseInto is Parse, building the document in a: in a's arrays when they
// hold the page, else in arrays it makes and leaves in a for the next
// parse.
func ParseInto(src []byte, a *Arrays) *Node {
	// Two counts size the arrays without a second pass; a page beyond an
	// estimate pays one regrowth. Every node but the document is a start
	// tag, a comment or a text run after a tag: at most about twice the
	// '<' that open no end tag. Most attributes are written with '='. The
	// text is at most about the source: decoding and dropping markup only
	// shrink it.
	tags, ends := countTags(src)
	buf := parseBuffers.Borrow()
	d := &a.d
	p := parser{
		z:       tokenizer{src: src, attrs: room(d.attrs, bytes.Count(src, []byte{'='}))},
		nodes:   room(d.nodes, 2*(tags-ends)+2)[:1],
		text:    slices.Grow(buf.text[:0], len(src)),
		scratch: buf.decoded,
	}
	p.nodes[0] = node{typ: DocumentNode, end: -1} // open, with no parent
	for p.z.next() {
		p.add()
	}
	p.closeTo(-1)
	*d = document{text: string(p.text), nodes: p.nodes, attrs: p.z.attrs}
	d.root = Node{d, 0}
	buf.text, buf.decoded = p.text, p.scratch
	parseBuffers.Return(buf)
	return &d.root
}

// Reset takes a's arrays back: no document parsed into a may be read after
// it. a keeps each array of at most keep entries for the next parse, and
// lets go of the text and of anything larger.
func (a *Arrays) Reset(keep int) {
	a.d = document{nodes: lend.Fit(a.d.nodes, keep), attrs: lend.Fit(a.d.attrs, keep)}
}

// buffers is what only a parse reads: the text it builds and the buffer
// character references are decoded in.
type buffers struct{ text, decoded []byte }

// What the idle parse buffers keep. Each buffer stays about the size of
// the largest page a parse met, so a warm parse allocates only its text.
const (
	// keptBuffers is how many idle buffer pairs wait for the next parses:
	// as many as ran at once, up to this many.
	keptBuffers = 8
	// keptBufferBytes is the largest buffer, text or decode, kept idle: a
	// page larger than this grows its own for the parse.
	keptBufferBytes = 16 << 10
)

// parseBuffers lends each parse its buffers.
var parseBuffers = lend.Stack[buffers]{Max: keptBuffers, Reset: (*buffers).reset}

func (b *buffers) reset() bool {
	b.text, b.decoded = lend.Fit(b.text, keptBufferBytes), lend.Fit(b.decoded, keptBufferBytes)
	return true
}

// room returns s emptied when it holds n entries, and otherwise an empty
// array of n: of at least 64 more than s when s lent one, so that arrays
// lent page after page stop growing soon.
func room[T node | attr](s []T, n int) []T {
	if cap(s) >= n {
		return s[:0]
	}
	if cap(s) > 0 {
		n = max(n, cap(s)+64)
	}
	return make([]T, 0, n)
}

// countTags counts the '<' in src, and those of them that open an end tag
// ("</"), eight bytes at a time.
func countTags(src []byte) (tags, ends int) {
	const ones = 0x0101010101010101
	s := src
	for ; len(s) > 8; s = s[8:] {
		lt := zeroBytes(binary.LittleEndian.Uint64(s) ^ '<'*ones)
		if lt == 0 {
			continue
		}
		slash := zeroBytes(binary.LittleEndian.Uint64(s[1:]) ^ '/'*ones)
		tags += bits.OnesCount64(lt)
		ends += bits.OnesCount64(lt & slash)
	}
	for i, c := range s {
		if c == '<' {
			tags++
			if i+1 < len(s) && s[i+1] == '/' {
				ends++
			}
		}
	}
	return tags, ends
}

// zeroBytes returns x with the high bit of each zero byte set and every
// other bit clear.
func zeroBytes(x uint64) uint64 {
	const low7 = 0x7f7f7f7f7f7f7f7f
	return ^((x&low7 + low7) | x | low7)
}

// parser builds a document from the tokenizer's spans.
type parser struct {
	z     tokenizer
	nodes []node // becomes the document's nodes
	text  []byte // copied out as the document's text; lent for the parse
	// top is the innermost open element. The open elements are it and its
	// ancestors, up to the document node: an open element's end is its
	// parent until closeTo closes it.
	top int32
	// scratch holds a decoded run until it is written to the text; it is
	// lent for the parse, as text is.
	scratch []byte
}

// add adds the tokenizer's token to the document.
func (p *parser) add() {
	tok := &p.z.tok
	src := p.z.src
	nodes := p.nodes
	switch tok.typ {
	case textToken:
		run := src[tok.data.start:tok.data.end]
		if !tok.verbatim && bytes.IndexByte(run, '&') >= 0 {
			run = p.decode(run, false)
		}
		// A run that starts with a printable ASCII byte is not blank; any
		// other may be white space alone, which makes no node.
		if len(run) == 0 || (run[0] <= ' ' || run[0] >= utf8.RuneSelf) && len(bytes.TrimSpace(run)) == 0 {
			return
		}
		p.addNode(node{typ: TextNode, data: p.write(run)})
	case commentToken:
		p.addNode(node{typ: CommentNode, data: p.write(src[tok.data.start:tok.data.end])})
	case doctypeToken:
		// Ignored; the webbase does not need doctype information.
	case startTagToken, selfClosingTagToken:
		// A start tag closes the innermost run of elements it implies the
		// end of: a new <tr> closes an open <td> and then an open <tr>, but
		// never escapes the enclosing <table>.
		if closes := autoCloses[tok.tag]; closes != 0 {
			keep := p.top
			for keep != 0 && closes.has(nodes[keep].tag) {
				keep = nodes[keep].end
			}
			p.closeTo(keep)
		}
		// The name slot the tokenizer put first for a tagOther element is
		// written lower-cased like any attribute name, with an empty value.
		for k := tok.attrs.start; k < tok.attrs.end; k++ {
			a := &p.z.attrs[k]
			a.name = p.writeName(src[a.name.start:a.name.end])
			a.value = p.writeDecoded(src[a.value.start:a.value.end])
		}
		i := p.addNode(node{typ: ElementNode, tag: tok.tag, data: tok.attrs})
		if tok.typ == startTagToken && !voidTags.has(tok.tag) {
			p.nodes[i].end = p.top
			p.top = i
		}
	case endTagToken:
		// Pop to the matching open element if one exists; otherwise drop
		// the stray end tag.
		name := src[tok.data.start:tok.data.end]
		for el := p.top; el != 0; el = nodes[el].end {
			if nodes[el].tag == tok.tag && (tok.tag != tagOther || equalFoldASCII(name, p.nameOf(el))) {
				p.closeTo(nodes[el].end)
				break
			}
		}
	}
}

// nameOf returns the lower-cased name of tagOther element el, written to
// the text so far.
func (p *parser) nameOf(el int32) []byte {
	s := p.z.attrs[p.nodes[el].data.start].name
	return p.text[s.start:s.end]
}

// addNode appends n as the last child of the innermost open element and
// returns its index. It ends where it starts: a start tag that opens it
// sets its end to the parent it closes back to.
func (p *parser) addNode(n node) int32 {
	i := int32(len(p.nodes))
	n.end = i + 1
	p.nodes = append(p.nodes, n)
	return i
}

// closeTo closes the open elements inside keep, which stays open (-1 closes
// them all): each one's subtree ends with the last node added, and its end
// stops naming its parent. It is the one place that pops.
func (p *parser) closeTo(keep int32) {
	end := int32(len(p.nodes))
	for p.top != keep {
		nd := &p.nodes[p.top]
		p.top, nd.end = nd.end, end
	}
}

// write appends b to the text and returns its span there.
func (p *parser) write(b []byte) span {
	start := len(p.text)
	p.text = append(p.text, b...)
	return span{int32(start), int32(len(p.text))}
}

// writeDecoded appends attribute value b with its character references
// decoded.
func (p *parser) writeDecoded(b []byte) span {
	if bytes.IndexByte(b, '&') < 0 {
		return p.write(b)
	}
	return p.write(p.decode(b, true))
}

// decode returns b with its character references decoded, as an attribute
// value's when inAttr is set, in the parser's scratch buffer.
func (p *parser) decode(b []byte, inAttr bool) []byte {
	p.scratch = appendDecoded(slices.Grow(p.scratch[:0], len(b)), b, inAttr) // decoding never grows b
	return p.scratch
}

// writeName appends b lower-cased, as strings.ToLower would.
func (p *parser) writeName(b []byte) span {
	start := len(p.text)
	for i, c := range b {
		if c >= utf8.RuneSelf {
			p.text = append(p.text, strings.ToLower(string(b[i:]))...)
			break
		}
		p.text = append(p.text, toLowerASCII(c))
	}
	return span{int32(start), int32(len(p.text))}
}
