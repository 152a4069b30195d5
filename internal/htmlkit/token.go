// Package htmlkit is a small, lenient HTML tokenizer and parser with the
// extraction helpers a webbase needs: links, forms (with widget typing) and
// tables.
//
// The paper notes that "the main problem we face while mapping sites is the
// presence of faulty HTML, in which case the parser needs to be able to
// recover from the ill-formed documents" (Section 7). Accordingly the
// tokenizer never fails: malformed markup degrades to text or is repaired,
// and the tree builder auto-closes dangling elements.
package htmlkit

import "strings"

// TokenType discriminates tokenizer output.
type TokenType uint8

// Token types produced by the tokenizer.
const (
	TextToken TokenType = iota
	StartTagToken
	EndTagToken
	SelfClosingTagToken
	CommentToken
	DoctypeToken
)

// Attr is a single name="value" attribute on a tag. Values are entity-
// decoded; names are lower-cased.
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

// Tokenizer walks an HTML document byte by byte. It is resilient: any input
// produces a token stream; garbage becomes text.
type Tokenizer struct {
	// src is the document, copied to a string once: every text run,
	// attribute value and comment that needs no decoding is a substring of
	// it, not a copy of its own.
	src string
	pos int
	// rawEnd holds the closing tag we are looking for while inside a raw
	// text element (script/style), or "" otherwise.
	rawEnd string
	// attrs is the slab the tokens' attribute lists are carved from.
	attrs []Attr
}

// NewTokenizer returns a tokenizer over a copy of src.
func NewTokenizer(src []byte) *Tokenizer {
	return &Tokenizer{src: string(src)}
}

// knownNames interns the tag and attribute names of the era's HTML in the
// two casings its authors used, so that naming a token allocates only for
// a name outside the table or in mixed case.
var knownNames = func() map[string]string {
	m := make(map[string]string)
	for _, n := range strings.Fields(`a b i p u br dd dl dt em h1 h2 h3 h4 hr li ol td th tr tt ul
		big div img pre body font form head html link meta span base code
		input label small style table tbody tfoot thead title center option
		script select strong caption textarea blockquote
		id alt for src rel href name size type rows cols align class color
		value width action border height method valign bgcolor checked content
		colspan rowspan enctype required selected maxlength cellpadding
		cellspacing http-equiv`) {
		m[n] = n
		m[strings.ToUpper(n)] = n
	}
	return m
}()

// lowerName returns strings.ToLower(name), without allocating when the name
// is in knownNames.
func lowerName(name string) string {
	if n, ok := knownNames[name]; ok {
		return n
	}
	return strings.ToLower(name)
}

// Next returns the next token and true, or a zero token and false at end of
// input.
func (z *Tokenizer) Next() (Token, bool) {
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
func (z *Tokenizer) text() Token {
	start := z.pos
	if i := strings.IndexByte(z.src[start:], '<'); i >= 0 {
		z.pos += i
	} else {
		z.pos = len(z.src)
	}
	return Token{Type: TextToken, Data: DecodeEntities(z.src[start:z.pos])}
}

// rawText consumes everything up to the matching </script> or </style>.
func (z *Tokenizer) rawText() Token {
	idx := indexCloseTag(z.src[z.pos:], z.rawEnd)
	var data string
	if idx < 0 {
		data = z.src[z.pos:]
		z.pos = len(z.src)
	} else {
		data = z.src[z.pos : z.pos+idx]
		z.pos += idx
	}
	z.rawEnd = ""
	// Raw text is returned verbatim (scripts are not entity-decoded).
	return Token{Type: TextToken, Data: data}
}

// indexCloseTag returns the index of the first "</name" in s, whatever the
// case of the name's letters, or -1.
func indexCloseTag(s, name string) int {
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

// tag parses a construct starting with '<'. Returns ok=false when the '<'
// does not start a tag-like construct.
func (z *Tokenizer) tag() (Token, bool) {
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
func (z *Tokenizer) markupDeclaration() Token {
	src := z.src
	if strings.HasPrefix(src[z.pos:], "<!--") {
		end := strings.Index(src[z.pos+4:], "-->")
		var body string
		if end < 0 {
			body = src[z.pos+4:] // unterminated comment: recover
			z.pos = len(src)
		} else {
			body = src[z.pos+4 : z.pos+4+end]
			z.pos += 4 + end + 3
		}
		return Token{Type: CommentToken, Data: body}
	}
	// <!DOCTYPE ...> or any other <!...>: consume to '>'.
	end := strings.IndexByte(src[z.pos:], '>')
	var body string
	if end < 0 {
		body = src[z.pos+2:]
		z.pos = len(src)
	} else {
		body = src[z.pos+2 : z.pos+end]
		z.pos += end + 1
	}
	return Token{Type: DoctypeToken, Data: strings.TrimSpace(body)}
}

func (z *Tokenizer) endTag() Token {
	src := z.src
	i := z.pos + 2
	start := i
	for i < len(src) && isNameChar(src[i]) {
		i++
	}
	name := lowerName(src[start:i])
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

func (z *Tokenizer) startTag() Token {
	src := z.src
	i := z.pos + 1
	start := i
	for i < len(src) && isNameChar(src[i]) {
		i++
	}
	name := lowerName(src[start:i])
	tok := Token{Type: StartTagToken, Data: name}
	first := len(z.attrs)
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
		aName := lowerName(src[aStart:i])
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
				val = src[vStart:i]
				if i < len(src) {
					i++ // closing quote
				}
			} else {
				vStart := i
				for i < len(src) && !isSpace(src[i]) && src[i] != '>' {
					i++
				}
				val = src[vStart:i]
			}
		}
		z.attrs = append(z.attrs, Attr{Name: aName, Value: DecodeEntities(val)})
	}
	if n := len(z.attrs); n > first {
		tok.Attrs = z.attrs[first:n:n]
	}
	z.pos = i
	if tok.Type == StartTagToken && (name == "script" || name == "style") {
		z.rawEnd = name
	}
	return tok
}

func isAlpha(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z'
}

func isNameChar(b byte) bool {
	return isAlpha(b) || b >= '0' && b <= '9' || b == '-' || b == '_' || b == ':'
}

func isSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r' || b == '\f'
}
