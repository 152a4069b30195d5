package htmlkit

import (
	"net/url"
	"strconv"
	"strings"
)

// TokenType, Attr and Token are the token stream as the tokenizer handed
// it out before it handed out spans: every name lower-cased, every text
// run and attribute value decoded. The token tests and the reference
// tokenizer speak it.
type TokenType uint8

const (
	TextToken TokenType = iota
	StartTagToken
	EndTagToken
	SelfClosingTagToken
	CommentToken
	DoctypeToken
)

// Attr is a single name="value" attribute on a tag.
type Attr struct {
	Name  string
	Value string
}

// Token is one lexical unit of an HTML document.
type Token struct {
	Type  TokenType
	Data  string // tag name (lower-cased), text content, or comment body
	Attrs []Attr
}

// Attr returns the value of the named attribute and whether it is present.
func (t Token) Attr(name string) (string, bool) {
	for _, a := range t.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// refDecodeEntities is appendDecoded written once more: through a
// strings.Builder, numbers through strconv, and legacy names tried longest
// first, transcribed from the standard's named character reference state
// (#named-character-reference-state): the longest legacy name matches; in
// an attribute value (inAttr), one without its ';' followed by '=' or an
// ASCII alphanumeric is flushed as literal text.
func refDecodeEntities(s string, inAttr bool) string {
	if !strings.ContainsRune(s, '&') {
		return s
	}
	var sb strings.Builder
	sb.Grow(len(s))
outer:
	for i := 0; i < len(s); {
		c := s[i]
		if c != '&' {
			sb.WriteByte(c)
			i++
			continue
		}
		if semi := strings.IndexByte(s[i:], ';'); semi >= 0 && semi <= 12 {
			if r, ok := refDecodeEntityName(s[i+1 : i+semi]); ok {
				sb.WriteRune(r)
				i += semi + 1
				continue
			}
		}
		for _, name := range refLegacyNames {
			if !strings.HasPrefix(s[i+1:], name) {
				continue
			}
			after := i + 1 + len(name)
			if inAttr && after < len(s) && (s[after] == '=' || refIsASCIIAlnum(s[after])) {
				break
			}
			sb.WriteRune(namedEntities[name])
			i = after
			continue outer
		}
		sb.WriteByte(c)
		i++
	}
	return sb.String()
}

// refLegacyNames are the standard's legacy names (those its table also
// lists without ';') that namedEntities has, longest first.
var refLegacyNames = []string{"middot", "laquo", "raquo", "nbsp", "copy", "quot", "COPY", "QUOT", "amp", "reg", "AMP", "REG", "lt", "gt", "LT", "GT"}

func refIsASCIIAlnum(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
}

func refDecodeEntityName(name string) (rune, bool) {
	if name == "" {
		return 0, false
	}
	if name[0] == '#' {
		num := name[1:]
		base := 10
		if len(num) > 0 && (num[0] == 'x' || num[0] == 'X') {
			num, base = num[1:], 16
		}
		n, err := strconv.ParseInt(num, base, 32)
		if err != nil || n <= 0 || n > 0x10FFFF {
			return 0, false
		}
		return rune(n), true
	}
	r, ok := namedEntities[name]
	return r, ok
}

// refIndexCloseTag is indexCloseTag over a string, folding case as
// strings.EqualFold does.
func refIndexCloseTag(s, name string) int {
	for i := 0; ; i++ {
		j := strings.IndexByte(s[i:], '<')
		if j < 0 {
			return -1
		}
		i += j
		if rest := s[i+1:]; len(rest) > len(name) && rest[0] == '/' && strings.EqualFold(rest[1:1+len(name)], name) {
			return i
		}
	}
}

// refTokenizer is the tokenizer as it was before it interned names and
// stopped copying: every name is strings.ToLower(string(src[a:b])), every
// text run and attribute value its own copy through refDecodeEntities. It is
// the reference the fuzz targets hold the tokenizer to.
type refTokenizer struct {
	src []byte
	pos int
	// rawEnd holds the closing tag we are looking for while inside a raw
	// text element (script/style) or an RCDATA element (title/textarea),
	// or "" otherwise.
	rawEnd string
}

// newRefTokenizer returns a tokenizer over src. The tokenizer does not copy
// src; callers must not mutate it during tokenization.
func newRefTokenizer(src []byte) *refTokenizer {
	return &refTokenizer{src: src}
}

// Next returns the next token and true, or a zero token and false at end of
// input.
func (z *refTokenizer) Next() (Token, bool) {
	if z.pos >= len(z.src) {
		return Token{}, false
	}
	if z.rawEnd != "" {
		return z.rawText(), true
	}
	if z.src[z.pos] == '<' {
		if tok, ok := z.tag(); ok {
			return tok, true
		}
		// A lone '<' that does not open a valid construct: emit it as text
		// and continue — recovery rather than failure.
		z.pos++
		return Token{Type: TextToken, Data: "<"}, true
	}
	return z.text(), true
}

// text consumes up to the next '<'.
func (z *refTokenizer) text() Token {
	start := z.pos
	for z.pos < len(z.src) && z.src[z.pos] != '<' {
		z.pos++
	}
	return Token{Type: TextToken, Data: refDecodeEntities(string(z.src[start:z.pos]), false)}
}

// rawText consumes everything up to the matching </script>, </style>,
// </title> or </textarea>.
func (z *refTokenizer) rawText() Token {
	// Not as it was: lower-casing the rest of the document to search it
	// moved the offsets whenever that changed its length, and panicked.
	idx := refIndexCloseTag(string(z.src[z.pos:]), z.rawEnd)
	var data string
	if idx < 0 {
		data = string(z.src[z.pos:])
		z.pos = len(z.src)
	} else {
		data = string(z.src[z.pos : z.pos+idx])
		z.pos += idx
	}
	// Raw text is returned verbatim (scripts are not entity-decoded);
	// RCDATA is decoded (#rcdata-state).
	if z.rawEnd == "title" || z.rawEnd == "textarea" {
		data = refDecodeEntities(data, false)
	}
	z.rawEnd = ""
	return Token{Type: TextToken, Data: data}
}

// tag parses a construct starting with '<'. Returns ok=false when the '<'
// does not start a tag-like construct.
func (z *refTokenizer) tag() (Token, bool) {
	src := z.src
	i := z.pos + 1
	if i >= len(src) {
		return Token{}, false
	}
	switch {
	case src[i] == '!':
		return z.markupDeclaration(), true
	case src[i] == '/':
		return z.endTag(), true
	case isAlpha(src[i]):
		return z.startTag(), true
	default:
		return Token{}, false
	}
}

// markupDeclaration handles <!-- comments --> and <!DOCTYPE ...>.
func (z *refTokenizer) markupDeclaration() Token {
	src := z.src
	if strings.HasPrefix(string(src[z.pos:]), "<!--") {
		// "<!-->" and "<!--->" are empty comments (WHATWG's
		// abrupt-closing-of-empty-comment).
		for _, empty := range []string{"<!-->", "<!--->"} {
			if strings.HasPrefix(string(src[z.pos:]), empty) {
				z.pos += len(empty)
				return Token{Type: CommentToken}
			}
		}
		// The comment ends at the first "-->", or at the first "--!>"
		// (WHATWG's comment end bang state: incorrectly-closed-comment),
		// whichever comes first.
		rest := string(src[z.pos+4:])
		end, closer := strings.Index(rest, "-->"), 3
		if bang := strings.Index(rest, "--!>"); bang >= 0 && (end < 0 || bang < end) {
			end, closer = bang, 4
		}
		var body string
		if end < 0 {
			body = rest // unterminated comment: recover
			z.pos = len(src)
		} else {
			body = rest[:end]
			z.pos += 4 + end + closer
		}
		return Token{Type: CommentToken, Data: body}
	}
	// <!DOCTYPE ...> or any other <!...>: consume to '>'.
	end := refIndexByteFrom(src, z.pos, '>')
	var body string
	if end < 0 {
		body = string(src[z.pos+2:])
		z.pos = len(src)
	} else {
		body = string(src[z.pos+2 : end])
		z.pos = end + 1
	}
	return Token{Type: DoctypeToken, Data: strings.TrimSpace(body)}
}

func (z *refTokenizer) endTag() Token {
	src := z.src
	i := z.pos + 2
	start := i
	for i < len(src) && isNameChar(src[i]) {
		i++
	}
	name := strings.ToLower(string(src[start:i]))
	// Skip to '>' (tolerating junk attributes on end tags).
	for i < len(src) && src[i] != '>' {
		i++
	}
	if i < len(src) {
		i++
	}
	z.pos = i
	return Token{Type: EndTagToken, Data: name}
}

func (z *refTokenizer) startTag() Token {
	src := z.src
	i := z.pos + 1
	start := i
	for i < len(src) && isNameChar(src[i]) {
		i++
	}
	name := strings.ToLower(string(src[start:i]))
	tok := Token{Type: StartTagToken, Data: name}
	for {
		// Skip whitespace.
		for i < len(src) && isSpace(src[i]) {
			i++
		}
		if i >= len(src) {
			break // unterminated tag: recover by closing it here
		}
		if src[i] == '>' {
			i++
			break
		}
		if src[i] == '/' {
			i++
			if i < len(src) && src[i] == '>' {
				i++
				tok.Type = SelfClosingTagToken
				break
			}
			continue
		}
		// Attribute name.
		aStart := i
		for i < len(src) && !isSpace(src[i]) && src[i] != '=' && src[i] != '>' && src[i] != '/' {
			i++
		}
		aName := strings.ToLower(string(src[aStart:i]))
		if aName == "" {
			i++ // stray byte; skip to make progress
			continue
		}
		// Optional value.
		for i < len(src) && isSpace(src[i]) {
			i++
		}
		val := ""
		if i < len(src) && src[i] == '=' {
			i++
			for i < len(src) && isSpace(src[i]) {
				i++
			}
			if i < len(src) && (src[i] == '"' || src[i] == '\'') {
				q := src[i]
				i++
				vStart := i
				for i < len(src) && src[i] != q {
					i++
				}
				val = string(src[vStart:i])
				if i < len(src) {
					i++ // closing quote
				}
			} else {
				vStart := i
				for i < len(src) && !isSpace(src[i]) && src[i] != '>' {
					i++
				}
				val = string(src[vStart:i])
			}
		}
		tok.Attrs = append(tok.Attrs, Attr{Name: aName, Value: refDecodeEntities(val, true)})
	}
	z.pos = i
	if tok.Type == StartTagToken && (name == "script" || name == "style" || name == "title" || name == "textarea") {
		z.rawEnd = name
	}
	return tok
}

func refIndexByteFrom(src []byte, from int, c byte) int {
	for i := from; i < len(src); i++ {
		if src[i] == c {
			return i
		}
	}
	return -1
}

// refTokens runs the reference tokenizer to the end of src.
func refTokens(src []byte) []Token {
	z := newRefTokenizer(src)
	var out []Token
	for {
		tok, ok := z.Next()
		if !ok {
			return out
		}
		out = append(out, tok)
	}
}

// treeNode is a node of the parse tree Parse built before it built a flat
// document: pointers to its parent and children, its strings its own.
type treeNode struct {
	Type     NodeType
	Data     string // tag name for elements, content for text/comments
	Attrs    []Attr
	Parent   *treeNode
	Children []*treeNode
}

func (n *treeNode) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

func (n *treeNode) IsElement(tag string) bool {
	return n.Type == ElementNode && n.Data == tag
}

// Walk visits n and its descendants in document order; false prunes.
func (n *treeNode) Walk(fn func(*treeNode) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

func (n *treeNode) FindAll(tag string) []*treeNode {
	var out []*treeNode
	n.Walk(func(m *treeNode) bool {
		if m.IsElement(tag) {
			out = append(out, m)
		}
		return true
	})
	return out
}

// preorder lists n and its descendants in document order.
func (n *treeNode) preorder() []*treeNode {
	var out []*treeNode
	n.Walk(func(m *treeNode) bool {
		out = append(out, m)
		return true
	})
	return out
}

// refParse is the tree parser, over the reference tokenizer: every node
// appended to its parent's child list as it is met, the open-element stack
// popped in three places. It is the reference the flat document is held
// to, node for node.
func refParse(src []byte) *treeNode {
	voidElements := map[string]bool{
		"area": true, "base": true, "br": true, "col": true, "embed": true,
		"hr": true, "img": true, "input": true, "link": true, "meta": true,
		"param": true, "source": true, "track": true, "wbr": true,
	}
	autoClose := map[string][]string{
		"li":     {"li"},
		"tr":     {"tr", "td", "th"},
		"td":     {"td", "th"},
		"th":     {"td", "th"},
		"option": {"option"},
		"p":      {"p"},
		"dt":     {"dt", "dd"},
		"dd":     {"dt", "dd"},
		"a":      {"a"}, // in body, start tag "a": an open a is closed first
	}
	z := newRefTokenizer(src)
	appendChild := func(n, c *treeNode) {
		c.Parent = n
		n.Children = append(n.Children, c)
	}
	doc := &treeNode{Type: DocumentNode}
	stack := []*treeNode{doc}
	top := func() *treeNode { return stack[len(stack)-1] }
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
			appendChild(top(), &treeNode{Type: TextNode, Data: tok.Data})
		case CommentToken:
			appendChild(top(), &treeNode{Type: CommentNode, Data: tok.Data})
		case StartTagToken, SelfClosingTagToken:
			if closes, ok := autoClose[tok.Data]; ok {
				// Only the immediate top of stack is considered at each
				// step: a new <tr> closes an open <td> and then an open
				// <tr>, but never escapes the enclosing <table>.
			pop:
				for len(stack) > 1 {
					for _, c := range closes {
						if top().Data == c {
							stack = stack[:len(stack)-1]
							continue pop
						}
					}
					break
				}
			}
			el := &treeNode{Type: ElementNode, Data: tok.Data, Attrs: tok.Attrs}
			appendChild(top(), el)
			if tok.Type == StartTagToken && !voidElements[tok.Data] {
				stack = append(stack, el)
			}
		case EndTagToken:
			for i := len(stack) - 1; i >= 1; i-- {
				if stack[i].Data == tok.Data {
					stack = stack[:i]
					break
				}
			}
		}
	}
	return doc
}

// refText is Node.Text as it was: concatenate, split, join.
func refText(n *treeNode) string {
	var sb strings.Builder
	n.Walk(func(m *treeNode) bool {
		if m.Type == TextNode {
			sb.WriteString(m.Data)
			sb.WriteByte(' ')
		}
		return true
	})
	return strings.Join(strings.Fields(sb.String()), " ")
}

// refTitle is Title over the tree.
func refTitle(doc *treeNode) string {
	if ts := doc.FindAll("title"); len(ts) > 0 {
		return refText(ts[0])
	}
	return ""
}

// refLinks is Links over the tree: its own walk, each href as written.
func refLinks(doc *treeNode) []Link {
	var out []Link
	for _, a := range doc.FindAll("a") {
		href, ok := a.Attr("href")
		if !ok || href == "" {
			continue
		}
		out = append(out, Link{Name: refText(a), Href: href})
	}
	return out
}

// refCellsOf and refRowsOf are cellsOf and rowsOf over the tree.
func refCellsOf(tr *treeNode) []*treeNode {
	var out []*treeNode
	for _, c := range tr.Children {
		if c.IsElement("td") || c.IsElement("th") {
			out = append(out, c)
		}
	}
	return out
}

func refRowsOf(tbl *treeNode) []*treeNode {
	var out []*treeNode
	var walk func(n *treeNode)
	walk = func(n *treeNode) {
		for _, c := range n.Children {
			if c.IsElement("table") {
				continue // nested table: its rows are its own
			}
			if c.IsElement("tr") {
				out = append(out, c)
				continue // cells may contain nested tables; don't descend
			}
			walk(c)
		}
	}
	walk(tbl)
	return out
}

// DataRow is one row of DataTable: the texts of the requested columns in
// request order ("" where the row is too short to reach a column), plus
// any links found in the row's cells by link text.
type DataRow struct {
	Cells []string
	Links map[string]string // link text → absolute URL; nil when the row has none
}

// DataTable is the data table as navigation read it before FindTable: the
// body rows of the first table whose header contains all the given
// columns, copied out with every link in a row resolved against baseURL.
// It returns nil when no table matches, and an empty non-nil list for a
// matching table with no body rows.
func DataTable(doc *Node, baseURL string, columns ...string) []DataRow {
	r := newResolver(baseURL)
	d := doc.d
	trs := make([]int32, 0, 64)
	cells := make([]int32, 0, 16)
	header := make([]string, 0, 16)
	at := append(make([]int, 0, 16), make([]int, len(columns))...)
	for j, end := doc.i, doc.node().end; j < end; j++ {
		if !d.isTag(j, tagTable) {
			continue
		}
		trs = d.rowsOf(trs[:0], j)
		if len(trs) == 0 {
			continue
		}
		header = header[:0]
		for _, c := range d.cellsOf(cells[:0], trs[0]) {
			header = append(header, strings.TrimSpace(d.textOf(c)))
		}
		if !headerIndexes(at, header, columns) {
			continue
		}
		rows := make([]DataRow, 0, len(trs)-1)
		texts := make([]string, len(columns)*(len(trs)-1)) // every row's Cells, carved in turn
		for _, tr := range trs[1:] {
			cells = d.cellsOf(cells[:0], tr)
			if len(cells) == 0 {
				continue
			}
			row := DataRow{Cells: texts[:len(columns):len(columns)]}
			texts = texts[len(columns):]
			for k, i := range at {
				if i < len(cells) {
					row.Cells[k] = d.textOf(cells[i])
				}
			}
			for _, cell := range cells {
				for a, end := cell, d.nodes[cell].end; a < end; a++ {
					if !d.isTag(a, tagA) {
						continue
					}
					if href, has := (Node{d, a}).Attr("href"); has {
						if row.Links == nil {
							row.Links = make(map[string]string)
						}
						row.Links[d.textOf(a)] = r.resolve(href)
					}
				}
			}
			rows = append(rows, row)
		}
		return rows
	}
	return nil
}

// refDataRow and refDataTable are DataTable as it was before it: every
// header column of every row in a map keyed by the lower-cased, trimmed
// header text.
type refDataRow struct {
	Cells map[string]string
	Links map[string]string
}

func refDataTable(doc *treeNode, baseURL string, columns ...string) []refDataRow {
	for _, tbl := range doc.FindAll("table") {
		trs := refRowsOf(tbl)
		if len(trs) == 0 {
			continue
		}
		idx := make(map[string]int)
		for i, c := range refCellsOf(trs[0]) {
			idx[strings.ToLower(strings.TrimSpace(refText(c)))] = i
		}
		ok := true
		for _, c := range columns {
			if _, found := idx[strings.ToLower(c)]; !found {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		rows := make([]refDataRow, 0, len(trs)-1)
		for _, tr := range trs[1:] {
			cells := refCellsOf(tr)
			if len(cells) == 0 {
				continue
			}
			row := refDataRow{Cells: make(map[string]string, len(idx))}
			for name, i := range idx {
				if i < len(cells) {
					row.Cells[name] = refText(cells[i])
				}
			}
			for _, cell := range cells {
				cell.Walk(func(a *treeNode) bool {
					if href, has := a.Attr("href"); a.IsElement("a") && has {
						if row.Links == nil {
							row.Links = make(map[string]string)
						}
						row.Links[refText(a)] = refResolve(baseURL, href)
					}
					return true
				})
			}
			rows = append(rows, row)
		}
		return rows
	}
	return nil
}

// refEscapeText and refEscapeAttr are the escapers as they were: a
// Replacer built on every call.
func refEscapeText(s string) string {
	return strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;").Replace(s)
}

func refEscapeAttr(s string) string {
	return strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;").Replace(s)
}

// refResolve resolves ref against base through net/url, both URLs parsed
// every time: the reference the page resolver and Resolve are held to.
func refResolve(base, ref string) string {
	b, err := url.Parse(base)
	if err != nil {
		return ref
	}
	r, err := url.Parse(ref)
	if err != nil {
		return ref
	}
	return b.ResolveReference(r).String()
}
