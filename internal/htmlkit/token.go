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
	// entity-decoded (a title's or textarea's is).
	verbatim bool
	// data is the text, the comment or doctype body, or the tag's name as
	// written.
	data span
	// attrs is a start tag's attributes: the tokenizer's attrs[start:end].
	// The first of a tagOther start tag is its name, with an empty value.
	attrs span
}

// tokenizer walks an HTML document byte by byte. It is resilient: any input
// produces a token stream; garbage becomes text.
type tokenizer struct {
	src []byte
	pos int
	// rawEnd is the element whose end tag we are looking for while inside
	// a raw text element (script/style) or an RCDATA element
	// (title/textarea), or tagOther otherwise.
	rawEnd tagID
	// attrs holds the attributes of every start tag so far, each name and
	// value a span of src as written. The parser rewrites them in place
	// into spans of the document's text, and keeps the array.
	attrs []attr
	// tok is the token the last call of next read.
	tok token
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
		s |= 1 << lookupTag([]byte(n))
	}
	return s
}

var (
	// voidTags never have children; their start tag is the whole element.
	voidTags = tagSet("area base br col embed hr img input link meta param source track wbr")

	// autoCloses lists, for each tag, the open tags that an occurrence of it
	// implicitly closes. This captures the common omitted-end-tag patterns
	// in 1990s HTML (e.g. successive <li>, <tr>, <td>, <option> without
	// closers). A new <a> closes an open one: WHATWG's in-body insertion
	// mode runs the adoption agency for a start tag "a" while an a element
	// is an active formatting element, so links never nest.
	autoCloses = func() (t [64]tagBits) {
		for tag, closes := range map[string]string{
			"li": "li", "tr": "tr td th", "td": "td th", "th": "td th",
			"option": "option", "p": "p", "dt": "dt dd", "dd": "dt dd",
			"a": "a",
		} {
			t[lookupTag([]byte(tag))] = tagSet(closes)
		}
		return t
	}()
)

// maxTagName is the longest name in tagNames.
const maxTagName = len("blockquote")

// tagByHash maps tagHash of a name in tagNames to its id. Every other slot
// holds tagOther, whose name is "", so a name outside the table fails the
// one comparison lookupTag makes.
var tagByHash = func() (t [256]tagID) {
	if len(tagNames) > 64 {
		panic("htmlkit: a tag set holds at most 64 tags")
	}
	for i, n := range tagNames[1:] {
		h := tagHash([]byte(n))
		if t[h] != tagOther {
			panic("htmlkit: tags " + n + " and " + tagNames[t[h]] + " share a hash")
		}
		t[h] = tagID(i + 1)
	}
	return t
}()

// tagHash hashes a non-empty name by its length and its first, middle and
// last bytes, whatever their case. The multipliers are chosen so that no
// two names in tagNames share a slot.
func tagHash(name []byte) uint8 {
	n := len(name)
	return uint8(2*int(name[0]|0x20) + 18*int(name[n/2]|0x20) + 9*int(name[n-1]|0x20) + n)
}

// lookupTag returns the id of a tag name written in any case, or tagOther.
func lookupTag(name []byte) tagID {
	if len(name) == 0 || len(name) > maxTagName {
		return tagOther
	}
	id := tagByHash[tagHash(name)]
	if !equalFoldASCII(name, tagNames[id]) {
		return tagOther
	}
	return id
}

func toLowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// Byte classes, one bit each in byteClass, for the tokenizer's loops.
const (
	classAlpha    = 1 << iota // starts a tag name: an ASCII letter
	className                 // continues a tag name: a letter, a digit, '-', '_' or ':'
	classSpace                // separates attributes: ' ', '\t', '\n', '\r' or '\f'
	classAttrEnd              // ends an attribute name: a space, '=', '>' or '/'
	classValueEnd             // ends an unquoted attribute value: a space or '>'
)

var byteClass = func() (t [256]uint8) {
	for c := 'a'; c <= 'z'; c++ {
		t[c] |= classAlpha | className
		t[c-'a'+'A'] |= classAlpha | className
	}
	for _, c := range "0123456789-_:" {
		t[c] |= className
	}
	for _, c := range " \t\n\r\f" {
		t[c] |= classSpace | classAttrEnd | classValueEnd
	}
	for _, c := range "=>/" {
		t[c] |= classAttrEnd
	}
	t['>'] |= classValueEnd
	return t
}()

func isAlpha(b byte) bool    { return byteClass[b]&classAlpha != 0 }
func isNameChar(b byte) bool { return byteClass[b]&className != 0 }
func isSpace(b byte) bool    { return byteClass[b]&classSpace != 0 }

// next reads the next token into z.tok and reports whether there was one.
func (z *tokenizer) next() bool {
	src, i := z.src, z.pos
	if i >= len(src) {
		return false
	}
	if z.rawEnd != tagOther {
		z.rawText()
		return true
	}
	if src[i] == '<' {
		if i+1 < len(src) {
			switch c := src[i+1]; {
			case isAlpha(c):
				z.startTag()
				return true
			case c == '/':
				z.endTag()
				return true
			case c == '!':
				z.markupDeclaration()
				return true
			}
		}
		// A lone '<' that does not open a valid construct: emit it as text
		// and continue — recovery rather than failure.
		z.pos++
		z.tok = token{typ: textToken, data: span{int32(i), int32(i + 1)}}
		return true
	}
	// A text run: up to the next '<'.
	end := len(src)
	if j := bytes.IndexByte(src[i:], '<'); j >= 0 {
		end = i + j
	}
	z.pos = end
	z.tok = token{typ: textToken, data: span{int32(i), int32(end)}}
	return true
}

// rawText consumes everything up to the matching </script>, </style>,
// </title> or </textarea>: markup inside is text. Raw text is kept
// verbatim (scripts are not entity-decoded); RCDATA is decoded like any
// text (WHATWG's #rcdata-state reads character references).
func (z *tokenizer) rawText() {
	start := z.pos
	if idx := indexCloseTag(z.src[start:], tagNames[z.rawEnd]); idx < 0 {
		z.pos = len(z.src)
	} else {
		z.pos += idx
	}
	verbatim := z.rawEnd == tagScript || z.rawEnd == tagStyle
	z.rawEnd = tagOther
	z.tok = token{typ: textToken, verbatim: verbatim, data: span{int32(start), int32(z.pos)}}
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
func equalFoldASCII[S string | []byte](b []byte, name S) bool {
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

// markupDeclaration handles <!-- comments --> and <!DOCTYPE ...>.
func (z *tokenizer) markupDeclaration() {
	src := z.src
	if bytes.HasPrefix(src[z.pos:], []byte("<!--")) {
		body, end := z.pos+4, len(src) // unterminated comment: recover
		z.pos = len(src)
		switch rest := src[body:]; {
		case bytes.HasPrefix(rest, []byte(">")):
			// "<!-->" and "<!--->" are empty comments that end at their '>'
			// (WHATWG's abrupt-closing-of-empty-comment).
			end, z.pos = body, body+1
		case bytes.HasPrefix(rest, []byte("->")):
			end, z.pos = body, body+2
		default:
			if i, n := commentEnd(rest); i >= 0 {
				end, z.pos = body+i, body+i+n
			}
		}
		z.tok = token{typ: commentToken, data: span{int32(body), int32(end)}}
		return
	}
	// <!DOCTYPE ...> or any other <!...>: consume to '>'.
	body, end := z.pos+2, len(src)
	z.pos = len(src)
	if i := bytes.IndexByte(src[body:], '>'); i >= 0 {
		end, z.pos = body+i, body+i+1
	}
	z.tok = token{typ: doctypeToken, data: span{int32(body), int32(end)}}
}

// commentEnd returns the index in a comment's rest of the "-->" or "--!>"
// that ends it, and that end's length; -1 when the comment is unterminated.
// WHATWG's comment end state closes a comment at the '>' after "--", and
// its comment end bang state at the '>' after "--!" (an
// incorrectly-closed-comment).
func commentEnd(rest []byte) (int, int) {
	for i := 0; ; i++ {
		j := bytes.Index(rest[i:], []byte("--"))
		if j < 0 {
			return -1, 0
		}
		i += j
		switch after := rest[i+2:]; {
		case len(after) > 0 && after[0] == '>':
			return i, 3
		case len(after) > 1 && after[0] == '!' && after[1] == '>':
			return i, 4
		}
	}
}

func (z *tokenizer) endTag() {
	src := z.src
	start := z.pos + 2
	i := start
	for i < len(src) && isNameChar(src[i]) {
		i++
	}
	z.tok = token{typ: endTagToken, tag: lookupTag(src[start:i]), data: span{int32(start), int32(i)}}
	// Skip to '>' (tolerating junk attributes on end tags).
	if j := bytes.IndexByte(src[i:], '>'); j >= 0 {
		z.pos = i + j + 1
	} else {
		z.pos = len(src)
	}
}

func (z *tokenizer) startTag() {
	src := z.src
	start := z.pos + 1
	i := start
	for i < len(src) && isNameChar(src[i]) {
		i++
	}
	tok := &z.tok
	*tok = token{typ: startTagToken, tag: lookupTag(src[start:i]), data: span{int32(start), int32(i)}}
	tok.attrs.start = int32(len(z.attrs))
	if tok.tag == tagOther {
		z.attrs = append(z.attrs, attr{name: tok.data})
	}
	for i < len(src) {
		c := src[i]
		if isSpace(c) {
			i++
			continue
		}
		if c == '>' {
			i++
			break
		}
		if c == '/' {
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
		for i < len(src) && byteClass[src[i]]&classAttrEnd == 0 {
			i++
		}
		if i == aStart {
			i++ // a stray '='; skip to make progress
			continue
		}
		a := attr{name: span{int32(aStart), int32(i)}}
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
				vEnd := len(src) // unterminated value: recover
				if j := bytes.IndexByte(src[i:], q); j >= 0 {
					vEnd = i + j
				}
				a.value = span{int32(i), int32(vEnd)}
				i = min(vEnd+1, len(src)) // past the closing quote
			} else {
				vStart := i
				for i < len(src) && byteClass[src[i]]&classValueEnd == 0 {
					i++
				}
				a.value = span{int32(vStart), int32(i)}
			}
		}
		z.attrs = append(z.attrs, a)
	}
	tok.attrs.end = int32(len(z.attrs))
	z.pos = i
	switch tok.tag {
	case tagScript, tagStyle, tagTitle, tagTextarea:
		if tok.typ == startTagToken {
			z.rawEnd = tok.tag
		}
	}
}
