// Package relation implements the relational model substrate used by every
// layer of the webbase: typed values, schemas, tuples and in-memory
// relations with the usual algebraic operations.
//
// The paper represents the user-level view of the Web with the relational
// model (Section 2); this package is the common currency passed between the
// virtual physical, logical and external schema layers.
package relation

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic type of a Value.
type Kind uint8

// The value kinds supported by webbase relations.
const (
	KindNull Kind = iota
	KindString
	KindInt
	KindFloat
	KindBool
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed relational value. The zero Value is null.
// Values are immutable and safe to copy.
//
// A Value is 32 bytes: s is the string payload, n the int, the float's bits
// or 0/1 for a bool. A payload field a kind does not use is zero, and every
// NaN is stored with the same bits, so two values are the same value (see
// same) exactly when their fields are equal.
type Value struct {
	s    string
	n    uint64
	kind Kind
}

// Null returns the null value.
func Null() Value { return Value{} }

// String wraps a string value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Int wraps an integer value.
func Int(i int64) Value { return Value{kind: KindInt, n: uint64(i)} }

// canonicalNaN is the bits every float NaN is stored with.
var canonicalNaN = math.Float64bits(math.NaN())

// Float wraps a floating-point value.
func Float(f float64) Value {
	if f != f {
		return Value{kind: KindFloat, n: canonicalNaN}
	}
	return Value{kind: KindFloat, n: math.Float64bits(f)}
}

// Bool wraps a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Str returns the string payload. It is the empty string for non-string
// values; use String() for a printable rendering of any value.
func (v Value) Str() string { return v.s }

// IntVal returns the integer payload (0 for non-int values).
func (v Value) IntVal() int64 {
	if v.kind == KindInt {
		return int64(v.n)
	}
	return 0
}

// FloatVal returns the numeric payload as a float64. Integers are widened;
// other kinds yield 0.
func (v Value) FloatVal() float64 {
	switch v.kind {
	case KindInt:
		return float64(int64(v.n))
	case KindFloat:
		return math.Float64frombits(v.n)
	default:
		return 0
	}
}

// BoolVal returns the boolean payload (false for non-bool values).
func (v Value) BoolVal() bool { return v.kind == KindBool && v.n == 1 }

// IsNumeric reports whether v is an int or a float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// String renders the value for display. Strings render without quotes.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "∅"
	case KindString:
		return v.s
	case KindInt:
		return strconv.FormatInt(v.IntVal(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.FloatVal(), 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.BoolVal())
	default:
		return "?"
	}
}

// Key returns a string that uniquely identifies the value: two values have
// the same key exactly when they are the same value (see same). The
// relational operations compare values directly and never build one.
func (v Value) Key() string { return string(v.appendKey(make([]byte, 0, 32))) }

// appendKey appends Key's bytes to buf.
func (v Value) appendKey(buf []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(buf, "n:"...)
	case KindString:
		return append(append(buf, "s:"...), v.s...)
	case KindInt:
		return strconv.AppendInt(append(buf, "i:"...), v.IntVal(), 10)
	case KindFloat:
		return strconv.AppendFloat(append(buf, "f:"...), v.FloatVal(), 'g', -1, 64)
	default: // KindBool
		if v.BoolVal() {
			return append(buf, "b:1"...)
		}
		return append(buf, "b:0"...)
	}
}

// same reports value identity, the equality deduplication and joins use:
// the same kind and the same payload, so strings compare case-sensitively,
// an int is never the float it equals, every NaN is one value and -0 is
// not +0. It is stricter than Equal, which coerces for comparisons.
func (v Value) same(o Value) bool { return v.kind == o.kind && v.n == o.n && v.s == o.s }

// Equal reports value equality. Numeric values compare across int/float.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// Compare orders two values. The ordering is total: values of different,
// non-comparable kinds order by kind. Numeric kinds compare numerically
// across int/float; strings compare case-insensitively (Web form values are
// case-normalized by sites, per Section 7's attribute standardization).
//
// A string compared against a numeric value is coerced to a number when it
// parses as one — everything on the Web is text, so the user's quoted
// '9000' must match the 9000 a site's table cell parsed to. (The coercion
// admits a corner intransitivity — "9000" and "9000.0" each equal 9000 but
// not each other — which cannot arise from a single consistently formatted
// column.)
func (v Value) Compare(o Value) int {
	if v.IsNumeric() && o.IsNumeric() {
		return compareFloats(v.FloatVal(), o.FloatVal())
	}
	if v.kind == KindString && o.IsNumeric() {
		if f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64); err == nil {
			return compareFloats(f, o.FloatVal())
		}
	}
	if o.kind == KindString && v.IsNumeric() {
		if f, err := strconv.ParseFloat(strings.TrimSpace(o.s), 64); err == nil {
			return compareFloats(v.FloatVal(), f)
		}
	}
	if v.kind != o.kind {
		return int(v.kind) - int(o.kind)
	}
	switch v.kind {
	case KindString:
		return strings.Compare(strings.ToLower(v.s), strings.ToLower(o.s))
	case KindBool:
		return int(v.n) - int(o.n)
	default: // KindNull
		return 0
	}
}

func compareFloats(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Parse converts raw text (typically extracted from an HTML page or typed
// into a form) into the most specific value kind: int, then float, then
// bool, then string. Empty text parses to null. Most cells are words and
// strconv allocates an error per failed parse, so the number parsers run
// only on text that can be a number.
func Parse(text string) Value {
	t := strings.TrimSpace(text)
	if t == "" {
		return Null()
	}
	if c := t[0]; c >= '0' && c <= '9' || c == '+' || c == '-' || c == '.' ||
		strings.EqualFold(t, "inf") || strings.EqualFold(t, "infinity") || strings.EqualFold(t, "nan") {
		if i, err := strconv.ParseInt(t, 10, 64); err == nil {
			return Int(i)
		}
		if f, err := strconv.ParseFloat(t, 64); err == nil {
			return Float(f)
		}
	}
	switch t { // strconv.ParseBool's spellings, less "1" and "0", which are ints
	case "t", "T", "TRUE", "true", "True":
		return Bool(true)
	case "f", "F", "FALSE", "false", "False":
		return Bool(false)
	}
	return String(t)
}

// ParseMoney parses a price rendered with currency decorations, e.g.
// "$12,500" or "12,500.00". It returns the null value if no digits are
// present.
func ParseMoney(text string) Value {
	var sb strings.Builder
	for _, r := range text {
		switch {
		case r >= '0' && r <= '9', r == '.', r == '-':
			sb.WriteRune(r)
		}
	}
	t := sb.String()
	if t == "" {
		return Null()
	}
	if i, err := strconv.ParseInt(t, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(t, 64); err == nil {
		return Float(f)
	}
	return Null()
}
