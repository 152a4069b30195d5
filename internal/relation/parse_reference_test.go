package relation

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// parseReference is Parse as it was before it chose parsers by first byte:
// every strconv parser in turn. It is kept as the oracle Parse is compared
// against.
func parseReference(text string) Value {
	t := strings.TrimSpace(text)
	if t == "" {
		return Null()
	}
	if i, err := strconv.ParseInt(t, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(t, 64); err == nil {
		return Float(f)
	}
	if b, err := strconv.ParseBool(t); err == nil {
		return Bool(b)
	}
	return String(t)
}

// sameValue is identity, not Equal: same kind and same payload, with NaN
// equal to itself and -0 distinct from +0.
func sameValue(a, b Value) bool {
	return a.kind == b.kind && a.s == b.s && a.IntVal() == b.IntVal() && a.BoolVal() == b.BoolVal() &&
		(math.Float64bits(a.FloatVal()) == math.Float64bits(b.FloatVal()) || a.FloatVal() != a.FloatVal() && b.FloatVal() != b.FloatVal())
}

// lookAlikes are texts that are almost, or unexpectedly, numbers or bools.
var lookAlikes = []string{
	"", " ", "0", "1", "-1", "+1", "007", "1993", " 42 ", "9223372036854775807", "9223372036854775808",
	"-9223372036854775809", "1e5", "1E5", "1e", "1.5", ".5", "5.", ".", "-", "+", "-.5", "+.5e3", "1_000", "0x10",
	"0X1p-2", "0b11", "0o7", "1,500", "$12", "12%", "555-1234", "1993-1995", "3 doors", "--1", "+-1",
	"Inf", "inf", "INF", "+Inf", "-inf", "infinity", "Infinity", "-INFINITY", "infinit", "infinityx", "Infiniti",
	"nan", "NaN", "NAN", "+nan", "-nan", "nano", "neon", "nissan", "n", "i",
	"t", "T", "true", "True", "TRUE", "tRUE", "truE", "taurus", "toyota", "f", "F", "false", "False", "FALSE",
	"fALSE", "ford", "fair", "yes", "no", "on", "off", "null", "1e400", "-1e400", "1e-400", "-0", "-0.0", "0.0",
	"１２", "٣", "1 ", " 1", "\t7\n", "1 2", "0x", "0x1.8p1", "1p3", "e5", "E", "+e1",
}

func TestParseMatchesReferenceOnLookAlikes(t *testing.T) {
	for _, s := range lookAlikes {
		if got, want := Parse(s), parseReference(s); !sameValue(got, want) {
			t.Errorf("Parse(%q) = %s %v, reference %s %v", s, got.Kind(), got, want.Kind(), want)
		}
	}
}

// TestParseMatchesReferenceOnRecordedPages runs both over every text run of
// the 47 pages recorded from the simulated sites — a superset of the table
// cells navigation extracts from them.
func TestParseMatchesReferenceOnRecordedPages(t *testing.T) {
	pages, err := filepath.Glob("../navcalc/testdata/pages/*.html")
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 47 {
		t.Fatalf("found %d recorded pages, want 47", len(pages))
	}
	text := regexp.MustCompile(`>([^<]+)<`)
	kinds := map[Kind]int{}
	for _, p := range pages {
		body, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range text.FindAllStringSubmatch(string(body), -1) {
			got, want := Parse(m[1]), parseReference(m[1])
			if !sameValue(got, want) {
				t.Errorf("%s: Parse(%q) = %s %v, reference %s %v", filepath.Base(p), m[1], got.Kind(), got, want.Kind(), want)
			}
			kinds[got.Kind()]++
		}
	}
	if kinds[KindString] == 0 || kinds[KindInt] == 0 || kinds[KindFloat] == 0 {
		t.Errorf("recorded pages exercise too few kinds: %v", kinds)
	}
}

// TestParseAllocatesNothingForWords: the point of choosing by first byte.
func TestParseAllocatesNothingForWords(t *testing.T) {
	for _, s := range []string{"ford", "taurus", "neon", "Infiniti", "good", "(516) 555-0123"} {
		if n := testing.AllocsPerRun(100, func() { Parse(s) }); n != 0 {
			t.Errorf("Parse(%q) allocates %v times", s, n)
		}
	}
}

func FuzzParse(f *testing.F) {
	for _, s := range lookAlikes {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := Parse(s), parseReference(s); !sameValue(got, want) {
			t.Errorf("Parse(%q) = %s %v, reference %s %v", s, got.Kind(), got, want.Kind(), want)
		}
	})
}
