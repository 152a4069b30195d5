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

import (
	"bytes"
	"strings"
)

// tokenType discriminates tokenizer output.
type tokenType uint8

// Token types produced by the tokenizer.
const (
	textToken tokenType = iota
	startTagToken
	endTagToken
	selfClosingTagToken
	commentToken
	doctypeToken
)

// span is the bytes [start, end) of a source or of a document's text.
type span struct{ start, end int32 }

// token is one lexical unit of an HTML document, as spans of the source:
// nothing is copied, decoded or lower-cased until the parser keeps it.
type token struct {
	typ tokenType
	tag tagID // start and end tags: the name's id, or tagOther
	// verbatim marks the text of a script or style element, which is not
	// entity-decoded.
	verbatim bool
	// data is the text, the comment or doctype body, or the tag's name as
	// written.
	data span
	// attrs is a start tag's attributes: the tokenizer's attrs[start:end].
	attrs span
}

// tokenizer walks an HTML document byte by byte. It is resilient: any input
// produces a token stream; garbage becomes text.
type tokenizer struct {
	src []byte
	pos int
	// rawEnd is the element whose end tag we are looking for while inside
	// a raw text element (script/style), or tagOther otherwise.
	rawEnd tagID
	// attrs holds the attributes of every start tag so far, each name and
	// value a span of src as written. The parser rewrites them in place
	// into spans of the document's text, and keeps the array.
	attrs []attr
}

// tagID is a tag name's index in tagNames; tagOther is every other name.
type tagID uint8

// The tags the parser and the extractors test for by id. The rest of
// tagNames gets ids after these.
const (
	tagOther tagID = iota // a name outside the table: its node holds the name
	tagA
	tagDD
	tagDT
	tagForm
	tagInput
	tagLI
	tagOption
	tagP
	tagScript
	tagSelect
	tagStyle
	tagTable
	tagTD
	tagTextarea
	tagTH
	tagTitle
	tagTR
)

// tagNames interns the tag names of the era's HTML: a known name costs its
// element one byte, not a copy of the name.
var tagNames = append([]string{
	tagOther: "", tagA: "a", tagDD: "dd", tagDT: "dt", tagForm: "form",
	tagInput: "input", tagLI: "li", tagOption: "option", tagP: "p",
	tagScript: "script", tagSelect: "select", tagStyle: "style",
	tagTable: "table", tagTD: "td", tagTextarea: "textarea", tagTH: "th",
	tagTitle: "title", tagTR: "tr",
}, strings.Fields(`area b base big blockquote body br caption center code col
	div dl em embed font h1 h2 h3 h4 h5 h6 head hr html i img label link meta
	ol param pre small source span strong tbody tfoot thead track tt u ul wbr`)...)

// tagBits is a set of tag ids.
type tagBits uint64

func (s tagBits) has(t tagID) bool { return s&(1<<t) != 0 }

func tagSet(names string) tagBits {
	var s tagBits
	for _, n := range strings.Fields(names) {
		s |= 1 << tagIDs[n]
	}
	return s
}

var (
	tagIDs = func() map[string]tagID {
		if len(tagNames) > 64 {
			panic("htmlkit: a tag set holds at most 64 tags")
		}
		m := make(map[string]tagID, len(tagNames))
		for i, n := range tagNames[1:] {
			m[n] = tagID(i + 1)
		}
		return m
	}()

	// voidTags never have children; their start tag is the whole element.
	voidTags = tagSet("area base br col embed hr img input link meta param source track wbr")

	// autoCloses lists, for each tag, the open tags that an occurrence of it
	// implicitly closes. This captures the common omitted-end-tag patterns
	// in 1990s HTML (e.g. successive <li>, <tr>, <td>, <option> without
	// closers).
	autoCloses = func() (t [64]tagBits) {
		for tag, closes := range map[string]string{
			"li": "li", "tr": "tr td th", "td": "td th", "th": "td th",
			"option": "option", "p": "p", "dt": "dt dd", "dd": "dt dd",
		} {
			t[tagIDs[tag]] = tagSet(closes)
		}
		return t
	}()
)

// maxTagName is the longest name in tagNames.
const maxTagName = len("blockquote")

// lookupTag returns the id of a tag name written in any case, or tagOther.
func lookupTag(name []byte) tagID {
	if len(name) > maxTagName {
		return tagOther
	}
	var lower [maxTagName]byte
	for i, c := range name {
		lower[i] = toLowerASCII(c)
	}
	return tagIDs[string(lower[:len(name)])]
}

func toLowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// next returns the next token and true, or false at end of input.
func (z *tokenizer) next() (token, bool) {
	if z.pos >= len(z.src) {
		return token{}, false
	}
	if z.rawEnd != tagOther {
		return z.rawText(), true
	}
	if z.src[z.pos] == '<' {
		if tok, ok := z.tag(); ok {
			return tok, true
		}
		// A lone '<' that does not open a valid construct: emit it as text
		// and continue — recovery rather than failure.
		z.pos++
		return token{typ: textToken, data: z.span(z.pos-1, z.pos)}, true
	}
	return z.text(), true
}

func (z *tokenizer) span(start, end int) span { return span{int32(start), int32(end)} }

// text consumes up to the next '<'.
func (z *tokenizer) text() token {
	start := z.pos
	if i := bytes.IndexByte(z.src[start:], '<'); i >= 0 {
		z.pos += i
	} else {
		z.pos = len(z.src)
	}
	return token{typ: textToken, data: z.span(start, z.pos)}
}

// rawText consumes everything up to the matching </script> or </style>.
func (z *tokenizer) rawText() token {
	start := z.pos
	if idx := indexCloseTag(z.src[start:], tagNames[z.rawEnd]); idx < 0 {
		z.pos = len(z.src)
	} else {
		z.pos += idx
	}
	z.rawEnd = tagOther
	// Raw text is kept verbatim (scripts are not entity-decoded).
	return token{typ: textToken, verbatim: true, data: z.span(start, z.pos)}
}

// indexCloseTag returns the index of the first "</name" in s, whatever the
// case of the name's letters, or -1.
func indexCloseTag(s []byte, name string) int {
	for i := 0; ; i++ {
		j := bytes.IndexByte(s[i:], '<')
		if j < 0 {
			return -1
		}
		i += j
		if rest := s[i+1:]; len(rest) > len(name) && rest[0] == '/' && equalFoldASCII(rest[1:1+len(name)], name) {
			return i
		}
	}
}

// equalFoldASCII reports whether b is name, a lower-case ASCII name, in
// any case.
func equalFoldASCII(b []byte, name string) bool {
	if len(b) != len(name) {
		return false
	}
	for i, c := range b {
		if toLowerASCII(c) != name[i] {
			return false
		}
	}
	return true
}

// tag parses a construct starting with '<'. Returns ok=false when the '<'
// does not start a tag-like construct.
func (z *tokenizer) tag() (token, bool) {
	src := z.src
	i := z.pos + 1
	if i >= len(src) {
		return token{}, false
	}
	switch {
	case src[i] == '!':
		return z.markupDeclaration(), true
	case src[i] == '/':
		return z.endTag(), true
	case isAlpha(src[i]):
		return z.startTag(), true
	default:
		return token{}, false
	}
}

// markupDeclaration handles <!-- comments --> and <!DOCTYPE ...>.
func (z *tokenizer) markupDeclaration() token {
	src := z.src
	if bytes.HasPrefix(src[z.pos:], []byte("<!--")) {
		body, end := z.pos+4, len(src) // unterminated comment: recover
		z.pos = len(src)
		if i := bytes.Index(src[body:], []byte("-->")); i >= 0 {
			end, z.pos = body+i, body+i+3
		}
		return token{typ: commentToken, data: z.span(body, end)}
	}
	// <!DOCTYPE ...> or any other <!...>: consume to '>'.
	body, end := z.pos+2, len(src)
	z.pos = len(src)
	if i := bytes.IndexByte(src[body:], '>'); i >= 0 {
		end, z.pos = body+i, body+i+1
	}
	return token{typ: doctypeToken, data: z.span(body, end)}
}

func (z *tokenizer) endTag() token {
	src := z.src
	i := z.pos + 2
	start := i
	for i < len(src) && isNameChar(src[i]) {
		i++
	}
	tok := token{typ: endTagToken, tag: lookupTag(src[start:i]), data: z.span(start, i)}
	// Skip to '>' (tolerating junk attributes on end tags).
	for i < len(src) && src[i] != '>' {
		i++
	}
	if i < len(src) {
		i++
	}
	z.pos = i
	return tok
}

func (z *tokenizer) startTag() token {
	src := z.src
	i := z.pos + 1
	start := i
	for i < len(src) && isNameChar(src[i]) {
		i++
	}
	tok := token{typ: startTagToken, tag: lookupTag(src[start:i]), data: z.span(start, i)}
	tok.attrs.start = int32(len(z.attrs))
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
				tok.typ = selfClosingTagToken
				break
			}
			continue
		}
		// Attribute name.
		aStart := i
		for i < len(src) && !isSpace(src[i]) && src[i] != '=' && src[i] != '>' && src[i] != '/' {
			i++
		}
		if i == aStart {
			i++ // stray byte; skip to make progress
			continue
		}
		a := attr{name: z.span(aStart, i)}
		// Optional value.
		for i < len(src) && isSpace(src[i]) {
			i++
		}
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
				a.value = z.span(vStart, i)
				if i < len(src) {
					i++ // closing quote
				}
			} else {
				vStart := i
				for i < len(src) && !isSpace(src[i]) && src[i] != '>' {
					i++
				}
				a.value = z.span(vStart, i)
			}
		}
		z.attrs = append(z.attrs, a)
	}
	tok.attrs.end = int32(len(z.attrs))
	z.pos = i
	if tok.typ == startTagToken && (tok.tag == tagScript || tok.tag == tagStyle) {
		z.rawEnd = tok.tag
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
