package htmlkit

import (
	"strings"
)

// refTokenizer is the tokenizer as it was before it interned names and
// stopped copying: every name is strings.ToLower(string(src[a:b])), every
// text run and attribute value its own copy through DecodeEntities. It is
// the reference the fuzz targets hold the tokenizer to.
type refTokenizer struct {
	src []byte
	pos int
	// rawEnd holds the closing tag we are looking for while inside a raw
	// text element (script/style), or "" otherwise.
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
	return Token{Type: TextToken, Data: DecodeEntities(string(z.src[start:z.pos]))}
}

// rawText consumes everything up to the matching </script> or </style>.
func (z *refTokenizer) rawText() Token {
	// Not as it was: lower-casing the rest of the document to search it
	// moved the offsets whenever that changed its length, and panicked.
	idx := indexCloseTag(string(z.src[z.pos:]), z.rawEnd)
	var data string
	if idx < 0 {
		data = string(z.src[z.pos:])
		z.pos = len(z.src)
	} else {
		data = string(z.src[z.pos : z.pos+idx])
		z.pos += idx
	}
	z.rawEnd = ""
	// Raw text is returned verbatim (scripts are not entity-decoded).
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
		end := strings.Index(string(src[z.pos+4:]), "-->")
		var body string
		if end < 0 {
			body = string(src[z.pos+4:]) // unterminated comment: recover
			z.pos = len(src)
		} else {
			body = string(src[z.pos+4 : z.pos+4+end])
			z.pos += 4 + end + 3
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
		tok.Attrs = append(tok.Attrs, Attr{Name: aName, Value: DecodeEntities(val)})
	}
	z.pos = i
	if tok.Type == StartTagToken && (name == "script" || name == "style") {
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

// refText is Node.Text as it was: concatenate, split, join.
func refText(n *Node) string {
	var sb strings.Builder
	n.Walk(func(m *Node) bool {
		if m.Type == TextNode {
			sb.WriteString(m.Data)
			sb.WriteByte(' ')
		}
		return true
	})
	return strings.Join(strings.Fields(sb.String()), " ")
}

// refLinks is Links as it was: its own walk, two URL parses per link.
func refLinks(doc *Node, baseURL string) []Link {
	var out []Link
	for _, a := range doc.FindAll("a") {
		href, ok := a.Attr("href")
		if !ok || href == "" {
			continue
		}
		out = append(out, Link{Name: refText(a), Address: Resolve(baseURL, href)})
	}
	return out
}

// refParse is Parse as it was: every node appended to its parent's child
// list as it is met (one slice growth after another), the open-element
// stack popped in three places. It is the reference the parser's tree
// shape — Children order and every Parent pointer — is held to.
func refParse(src []byte) *Node {
	z := Tokenizer{src: string(src)}
	appendChild := func(n, c *Node) {
		c.Parent = n
		n.Children = append(n.Children, c)
	}
	doc := &Node{Type: DocumentNode}
	stack := []*Node{doc}
	top := func() *Node { return stack[len(stack)-1] }
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
			appendChild(top(), &Node{Type: TextNode, Data: tok.Data})
		case CommentToken:
			appendChild(top(), &Node{Type: CommentNode, Data: tok.Data})
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
			el := &Node{Type: ElementNode, Data: tok.Data, Attrs: tok.Attrs}
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

// refDataRow and refDataTable are DataTable as it was: every header column
// of every row in a map keyed by the lower-cased, trimmed header text.
type refDataRow struct {
	Cells map[string]string
	Links map[string]string
}

func refDataTable(doc *Node, baseURL string, columns ...string) []refDataRow {
	r := resolver{raw: baseURL}
	var cells []*Node
	for _, tbl := range doc.FindAll("table") {
		trs := rowsOf(tbl)
		if len(trs) == 0 {
			continue
		}
		idx := make(map[string]int)
		for i, c := range cellsOf(cells[:0], trs[0]) {
			idx[strings.ToLower(strings.TrimSpace(c.Text()))] = i
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
			cells = cellsOf(cells[:0], tr)
			if len(cells) == 0 {
				continue
			}
			row := refDataRow{Cells: make(map[string]string, len(idx))}
			for name, i := range idx {
				if i < len(cells) {
					row.Cells[name] = cells[i].Text()
				}
			}
			for _, cell := range cells {
				cell.Walk(func(a *Node) bool {
					if href, has := a.Attr("href"); a.IsElement("a") && has {
						if row.Links == nil {
							row.Links = make(map[string]string)
						}
						row.Links[a.Text()] = r.resolve(href)
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
