package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"unicode/utf8"

	"webbase/internal/relation"
)

// rows is a tuples line's rows: each tuple a JSON array of null, string,
// number and bool values, positionally aligned with the meta schema. The
// bytes are encoding/json's for the same values, and a decoded tuple's
// values are carved from one slab.
//
// Numeric kinds normalize over the wire: a float with an integral value
// (5.0) encodes as "5" and decodes as an Int — the JSON number grammar
// carries no float/int distinction for integral values. A number without
// '.', 'e' or 'E' that fits in 64 bits decodes as an Int, any other as a
// Float.
//
// A decoded tuple's strings are substrings of the line's one string copy,
// so a caller keeping one tuple keeps at most that line's text.
type rows []relation.Tuple

// appendRows appends the rows, growing dst once for all of them. A
// non-finite float has no JSON token and is refused with the
// *json.UnsupportedValueError encoding/json would return.
func appendRows(dst []byte, rs []relation.Tuple) ([]byte, error) {
	size := 2
	for _, t := range rs {
		size += 3
		for _, v := range t {
			switch v.Kind() {
			case relation.KindString:
				size += len(v.Str()) + 3
			case relation.KindInt, relation.KindFloat:
				size += 25
			default:
				size += 6
			}
		}
	}
	buf := slices.Grow(dst, size)
	buf = append(buf, '[')
	for i, t := range rs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		for j, v := range t {
			if j > 0 {
				buf = append(buf, ',')
			}
			switch v.Kind() {
			case relation.KindString:
				buf = appendString(buf, v.Str())
			case relation.KindInt:
				buf = strconv.AppendInt(buf, v.IntVal(), 10)
			case relation.KindFloat:
				var err error
				if buf, err = appendFloat(buf, v.FloatVal()); err != nil {
					return dst, err
				}
			case relation.KindBool:
				buf = strconv.AppendBool(buf, v.BoolVal())
			default:
				buf = append(buf, "null"...)
			}
		}
		buf = append(buf, ']')
	}
	return append(buf, ']'), nil
}

const hex = "0123456789abcdef"

// appendString quotes s as encoding/json does with HTML escaping on: the
// quote, the backslash, <, > and & and every control byte are escaped
// (\b \f \n \r \t by name, the rest as \u00XX), so are U+2028 and U+2029,
// and each byte of invalid UTF-8 becomes the escape of U+FFFD.
func appendString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch b {
			case '"', '\\':
				buf = append(buf, '\\', b)
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', 'f', 'f', 'f', 'd')
		case c == 0x2028 || c == 0x2029:
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}

// appendFloat writes f as encoding/json does: the shortest 'f' rendering,
// or 'e' below 1e-6 and from 1e21 up, with a one-digit negative exponent
// written without its leading zero.
func appendFloat(buf []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return buf, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if n := len(buf); format == 'e' && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
		buf[n-2] = buf[n-1]
		buf = buf[:n-1]
	}
	return buf, nil
}

// decoder walks the text of one line. Every read refuses what
// encoding/json would refuse as JSON: a string with a bad escape or a
// control byte, a number outside the grammar, a missing separator.
type decoder struct {
	s string
	i int
}

var errSyntax = errors.New("not JSON")

// maxDepth is how deep skip follows nested values before it refuses them:
// well inside encoding/json's limit of 10 000, at whatever depth of a line
// it starts.
const maxDepth = 1000

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *decoder) peek() byte {
	for ; d.i < len(d.s); d.i++ {
		if c := d.s[d.i]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// done reports whether nothing but whitespace is left.
func (d *decoder) done() bool {
	d.peek()
	return d.i == len(d.s)
}

// consume takes c as the next byte after whitespace, if it is.
func (d *decoder) consume(c byte) bool {
	if d.peek() == c {
		d.i++
		return true
	}
	return false
}

// literal consumes word if the text continues with it.
func (d *decoder) literal(word string) bool {
	if len(d.s)-d.i >= len(word) && d.s[d.i:d.i+len(word)] == word {
		d.i += len(word)
		return true
	}
	return false
}

// null consumes a null, if one is next.
func (d *decoder) null() bool {
	return d.peek() == 'n' && d.literal("null")
}

// scanString steps over a string and returns what is between its
// quotes; plain says that is the string itself: no escape, no control
// byte, valid UTF-8.
func (d *decoder) scanString() (body string, plain bool, err error) {
	if d.peek() != '"' {
		return "", false, errSyntax
	}
	start := d.i
	plain, ascii := true, true
	for d.i++; d.i < len(d.s) && d.s[d.i] != '"'; d.i++ {
		switch b := d.s[d.i]; {
		case b == '\\':
			plain = false
			d.i++
		case b < 0x20:
			plain = false
		case b >= utf8.RuneSelf:
			ascii = false
		}
	}
	if d.i >= len(d.s) {
		return "", false, errors.New("unterminated string")
	}
	d.i++
	body = d.s[start+1 : d.i-1]
	return body, plain && (ascii || utf8.ValidString(body)), nil
}

// str reads a string. A plain one is a substring of the line; any other
// is unquoted by encoding/json on its own.
func (d *decoder) str() (string, error) {
	start := d.i
	body, plain, err := d.scanString()
	if err != nil || plain {
		return body, err
	}
	var s string
	err = json.Unmarshal([]byte(d.s[start:d.i]), &s)
	return s, err
}

// number steps over a number of JSON's grammar, -?(0|[1-9][0-9]*)
// (.[0-9]+)?([eE][+-]?[0-9]+)?, and says whether it has neither fraction
// nor exponent.
func (d *decoder) number() (num string, integral bool, err error) {
	d.peek()
	s, i := d.s, d.i
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case i < len(s) && '1' <= s[i] && s[i] <= '9':
		i = skipDigits(s, i+1)
	default:
		return "", false, errSyntax
	}
	integral = true
	if i < len(s) && s[i] == '.' {
		integral = false
		if i = skipDigits(s, i+1); s[i-1] == '.' {
			return "", false, errSyntax
		}
	}
	if i < len(s) && s[i]|0x20 == 'e' {
		integral = false
		if i++; i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		j := skipDigits(s, i)
		if j == i {
			return "", false, errSyntax
		}
		i = j
	}
	num, d.i = s[d.i:i], i
	return num, integral, nil
}

func skipDigits(s string, i int) int {
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		i++
	}
	return i
}

// int reads a number into an int as encoding/json does: written without
// fraction or exponent, and within 64 bits.
func (d *decoder) int() (int, error) {
	num, integral, err := d.number()
	if err != nil {
		return 0, err
	}
	if !integral {
		return 0, fmt.Errorf("number %s is not an integer", num)
	}
	return strconv.Atoi(num)
}

// bool reads true or false.
func (d *decoder) bool() (bool, error) {
	switch {
	case d.peek() == 't' && d.literal("true"):
		return true, nil
	case d.literal("false"):
		return false, nil
	}
	return false, errSyntax
}

// strings reads an array of strings, or null as none.
func (d *decoder) strings() ([]string, error) {
	if d.null() {
		return nil, nil
	}
	start, n := d.i, 0
	err := d.array(func() error {
		n++
		_, _, err := d.scanString()
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, n)
	d.i = start
	err = d.array(func() error {
		s, err := d.str()
		out = append(out, s)
		return err
	})
	return out, err
}

// array reads an array, calling elem at each element to read it.
func (d *decoder) array(elem func() error) error {
	if !d.consume('[') {
		return errSyntax
	}
	if d.consume(']') {
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if d.consume(']') {
			return nil
		}
		if !d.consume(',') {
			return errSyntax
		}
	}
}

// object reads an object, calling field at each key to read its value.
func (d *decoder) object(field func(key string) error) error {
	if !d.consume('{') {
		return errSyntax
	}
	if d.consume('}') {
		return nil
	}
	for {
		key, err := d.str()
		if err != nil {
			return err
		}
		if !d.consume(':') {
			return errSyntax
		}
		if err := field(key); err != nil {
			return err
		}
		if d.consume('}') {
			return nil
		}
		if !d.consume(',') {
			return errSyntax
		}
	}
}

// skip steps over any value, holding it to the grammar; depth is how
// deep it is nested.
func (d *decoder) skip(depth int) error {
	if depth > maxDepth {
		return errors.New("nested too deep")
	}
	var err error
	switch c := d.peek(); {
	case c == '"':
		_, err = d.str()
	case c == '{':
		err = d.object(func(string) error { return d.skip(depth + 1) })
	case c == '[':
		err = d.array(func() error { return d.skip(depth + 1) })
	case c == 't' || c == 'f':
		_, err = d.bool()
	case c == 'n':
		if !d.null() {
			err = errSyntax
		}
	default:
		_, _, err = d.number()
	}
	return err
}

var errNotRows = errors.New("tuples is not an array of rows")

// rows reads the rows in two walks of their text: one counts rows and
// values, the next carves them from one slab, each tuple sliced with
// cap == len. It refuses what a [][]any decoded with json.Number would
// have refused: an object or array cell, a row that is not an array (a
// null row is an empty tuple), and rows that are not an array (null is
// none).
func (d *decoder) rows() (rows, error) {
	if d.null() {
		return nil, nil
	}
	start := d.i
	n, values, err := d.walkRows(nil, nil)
	if err != nil {
		return nil, err
	}
	out, slab := make(rows, n), make([]relation.Value, values)
	d.i = start
	if _, _, err = d.walkRows(out, slab); err != nil {
		return nil, err
	}
	return out, nil
}

// walkRows steps over the rows; given somewhere to put them, it decodes
// them too.
func (d *decoder) walkRows(out rows, slab []relation.Value) (n, values int, err error) {
	fill := out != nil
	err = d.array(func() error {
		start := values
		switch {
		case d.null():
		case d.peek() == '[':
			err := d.array(func() error {
				v, err := d.value(fill)
				if fill && err == nil {
					slab[values] = v
				}
				values++
				return err
			})
			if err != nil {
				return err
			}
		default:
			return errNotRows
		}
		if fill {
			out[n] = slab[start:values:values]
		}
		n++
		return nil
	})
	return n, values, err
}

// value reads one tuple value; not filling, it returns the zero Value.
func (d *decoder) value(fill bool) (relation.Value, error) {
	switch c := d.peek(); {
	case c == '"':
		if !fill {
			_, _, err := d.scanString()
			return relation.Value{}, err
		}
		s, err := d.str()
		return relation.String(s), err
	case c == 'n':
		if d.null() {
			return relation.Null(), nil
		}
	case c == 't' || c == 'f':
		b, err := d.bool()
		return relation.Bool(b), err
	case c == '-' || '0' <= c && c <= '9':
		num, integral, err := d.number()
		if err != nil || !fill {
			return relation.Value{}, err
		}
		if integral {
			if n, err := strconv.ParseInt(num, 10, 64); err == nil {
				return relation.Int(n), nil
			}
		}
		f, err := strconv.ParseFloat(num, 64)
		if err != nil {
			return relation.Value{}, fmt.Errorf("bad number %q in tuple", num)
		}
		return relation.Float(f), nil
	}
	return relation.Value{}, fmt.Errorf("unexpected tuple value at offset %d", d.i)
}
