package htmlkit

import (
	"bytes"
	"strings"
	"unicode/utf8"
)

// namedEntities covers the entities that actually occur in the car-site
// corpus and in common faulty HTML. Unknown entities pass through verbatim,
// which is what browsers of the paper's era did.
var namedEntities = map[string]rune{
	"amp":    '&',
	"lt":     '<',
	"gt":     '>',
	"quot":   '"',
	"apos":   '\'',
	"nbsp":   '\u0020',
	"copy":   '©',
	"reg":    '®',
	"trade":  '™',
	"mdash":  '—',
	"ndash":  '–',
	"hellip": '…',
	"middot": '·',
	"laquo":  '«',
	"raquo":  '»',
	"bull":   '•',
}

// DecodeEntities replaces HTML character references in s with their
// characters. Malformed references (no semicolon, unknown name, bad number)
// are left untouched.
func DecodeEntities(s string) string {
	if !strings.ContainsRune(s, '&') {
		return s
	}
	return string(appendDecoded(make([]byte, 0, len(s)), []byte(s)))
}

// appendDecoded appends s to dst with its character references replaced, as
// DecodeEntities does. A reference is never shorter than its character, so
// the result grows dst by at most len(s).
func appendDecoded(dst, s []byte) []byte {
	for i := 0; i < len(s); {
		c := s[i]
		if c != '&' {
			dst = append(dst, c)
			i++
			continue
		}
		semi := bytes.IndexByte(s[i:], ';')
		if semi < 0 || semi > 12 {
			dst = append(dst, c)
			i++
			continue
		}
		if r, ok := decodeEntityName(s[i+1 : i+semi]); ok {
			dst = utf8.AppendRune(dst, r)
			i += semi + 1
			continue
		}
		dst = append(dst, c)
		i++
	}
	return dst
}

// decodeEntityName returns the character a reference's name stands for: a
// named entity, or '#' and a decimal or 'x' and a hexadecimal code point,
// with an optional '+' sign (as strconv.ParseInt reads it).
func decodeEntityName(name []byte) (rune, bool) {
	if len(name) == 0 {
		return 0, false
	}
	if name[0] != '#' {
		r, ok := namedEntities[string(name)]
		return r, ok
	}
	num, base := name[1:], rune(10)
	if len(num) > 0 && (num[0] == 'x' || num[0] == 'X') {
		num, base = num[1:], 16
	}
	if len(num) > 0 && num[0] == '+' {
		num = num[1:]
	}
	if len(num) == 0 {
		return 0, false
	}
	var n rune
	for _, c := range num {
		d := rune(-1)
		switch {
		case '0' <= c && c <= '9':
			d = rune(c - '0')
		case 'a' <= c && c <= 'f':
			d = rune(c-'a') + 10
		case 'A' <= c && c <= 'F':
			d = rune(c-'A') + 10
		}
		if d < 0 || d >= base {
			return 0, false
		}
		// A name is at most eleven bytes, but stop at the last code point
		// before n can overflow.
		if n = n*base + d; n > utf8.MaxRune {
			return 0, false
		}
	}
	return n, n > 0
}

// The escapers are built once: a Replacer is safe for concurrent use, and
// building one costs far more than running it over a table cell.
var (
	textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
)

// EscapeText escapes s for inclusion as HTML text content.
func EscapeText(s string) string { return textEscaper.Replace(s) }

// EscapeAttr escapes s for inclusion inside a double-quoted attribute.
func EscapeAttr(s string) string { return attrEscaper.Replace(s) }
