package htmlkit

import (
	"bytes"
	"strings"
	"unicode/utf8"
)

// namedEntities covers the entities that actually occur in the car-site
// corpus and in common faulty HTML. A name the table lacks stays literal: a
// named deviation from the standard's table of over two thousand names.
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
	"AMP":    '&',
	"LT":     '<',
	"GT":     '>',
	"QUOT":   '"',
	"COPY":   '©',
	"REG":    '®',
}

// legacyEntities are the names of namedEntities that the standard's table
// also lists without their ';': a reference to one needs none.
var legacyEntities = map[string]bool{
	"amp": true, "lt": true, "gt": true, "quot": true, "nbsp": true, "copy": true, "reg": true,
	"laquo": true, "raquo": true, "middot": true,
	"AMP": true, "LT": true, "GT": true, "QUOT": true, "COPY": true, "REG": true,
}

// DecodeEntities replaces the character references in text s with their
// characters, as the standard's named character reference state reads
// them in text: a named reference ends in ';', or, for a legacy name
// (legacyEntities), at the longest legacy name it starts with, so
// "&copy 1999" is "© 1999". Numeric references need their ';'. Malformed
// references (no semicolon, unknown name, bad number) are left untouched.
func DecodeEntities(s string) string {
	if !strings.ContainsRune(s, '&') {
		return s
	}
	return string(appendDecoded(make([]byte, 0, len(s)), []byte(s), false))
}

// appendDecoded appends s to dst with its character references replaced, as
// DecodeEntities does; in an attribute value (inAttr), a legacy reference
// without its ';' followed by '=' or an ASCII alphanumeric stays literal,
// so "?a=1&copy=2" keeps its parameter. A reference is never shorter than
// its character, so the result grows dst by at most len(s).
func appendDecoded(dst, s []byte, inAttr bool) []byte {
	for i := 0; i < len(s); {
		c := s[i]
		if c != '&' {
			dst = append(dst, c)
			i++
			continue
		}
		if r, n := reference(s[i:], inAttr); n > 0 {
			dst = utf8.AppendRune(dst, r)
			i += n
			continue
		}
		dst = append(dst, c)
		i++
	}
	return dst
}

// reference returns the character of the reference s starts with (s[0] is
// '&') and the reference's length, or a length of 0 when s starts with no
// reference appendDecoded decodes.
func reference(s []byte, inAttr bool) (rune, int) {
	if semi := bytes.IndexByte(s, ';'); semi > 0 && semi <= 12 {
		if r, ok := decodeEntityName(s[1:semi]); ok {
			return r, semi + 1
		}
	}
	// The longest legacy name s goes on with ("middot" is the longest).
	name := s[1:]
	for k := min(len(name), 6); k >= 2; k-- {
		if !legacyEntities[string(name[:k])] {
			continue
		}
		if inAttr && k < len(name) && (name[k] == '=' || isAlpha(name[k]) || '0' <= name[k] && name[k] <= '9') {
			return 0, 0
		}
		return namedEntities[string(name[:k])], 1 + k
	}
	return 0, 0
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
