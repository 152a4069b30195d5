package htmlkit

import (
	"strconv"
	"strings"
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
	var sb strings.Builder
	sb.Grow(len(s))
	for i := 0; i < len(s); {
		c := s[i]
		if c != '&' {
			sb.WriteByte(c)
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 || semi > 12 {
			sb.WriteByte(c)
			i++
			continue
		}
		name := s[i+1 : i+semi]
		if r, ok := decodeEntityName(name); ok {
			sb.WriteRune(r)
			i += semi + 1
			continue
		}
		sb.WriteByte(c)
		i++
	}
	return sb.String()
}

func decodeEntityName(name string) (rune, bool) {
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
