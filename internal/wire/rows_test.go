package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"webbase/internal/core"
	"webbase/internal/race"
	"webbase/internal/relation"
	"webbase/internal/ur"
)

// sameRows holds rows' decoding of raw to the reference's: the same
// verdict and, when both accept, the same tuples, each with cap == len.
func sameRows(t *testing.T, raw []byte) {
	t.Helper()
	want, wantErr := referenceRows(raw)
	d := decoder{s: string(raw)}
	got, gotErr := d.rows()
	if gotErr == nil && !d.done() {
		got, gotErr = nil, errSyntax
	}
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: rows decode with error %v, the reference with %v", raw, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%q: %d rows, the reference %d", raw, len(got), len(want))
	}
	for i, tp := range got {
		if !slices.Equal(tp, want[i]) || cap(tp) != len(tp) {
			t.Fatalf("%q: row %d is %v (cap %d), the reference's %v", raw, i, tp, cap(tp), want[i])
		}
	}
}

// FuzzTupleRows holds a tuples line's rows to the codec they replaced
// (reference_test.go). Encoding: tuples built from the string, int and
// float inputs encode to exactly the bytes encoding/json wrote for their
// [][]any, and a non-finite float is refused with the same error type.
// Decoding: any bytes, taken as the tuples value, decode exactly when the
// reference decodes them, to the same tuples.
func FuzzTupleRows(f *testing.F) {
	for _, raw := range []string{
		`[]`, `null`, ` [ [ 1 , "a" ] , [ ] , null ] `,
		`[["saab",14110],["saab",null],[true,false]]`,
		`[[5.0,-0.0,-0,1e3,1E-7,2.5e+2,9223372036854775807,9223372036854775808,-9223372036854775809,1e-400]]`,
		`[["<&>"," ","\ud800","😀","\"\\\/\b\f\n\r\t","é"]]`,
		"[[\"\xff\xfe\",\"caf\xc3\xa9\",\"\xe2\x80\xa8\"]]",
		// Refused: an array or object cell, a row or rows that are not an
		// array, a number past float64, bytes after the rows.
		`[[[1]]]`, `[[{}]]`, `"[[1]]"`, `{"a":[[1]]}`, `[1]`, `["a"]`, `[[1e999]]`, `[[1]] x`, `[[1],]`, `7`, `[[1]`,
	} {
		f.Add([]byte(raw), "", int64(0), 0.0)
	}
	for _, c := range []struct {
		s string
		n int64
		x float64
	}{
		{`<a href="x">&amp;</a>`, 1, 0.1},
		{"line\xe2\x80\xa8para\xe2\x80\xa9end", math.MaxInt64, 1e-7},
		{"\x00\x01\b\f\n\r\t\x1f\x7f\\\"", math.MinInt64, 1e21},
		{"\xff\xfe bad \xed\xa0\x80 utf-8", -1, 1e20},
		{"caf\xc3\xa9", 0, math.Copysign(0, -1)},
		{"", 1 << 53, 9.999999e-7},
		{"x", 7, 5e-324},
		{"y", 8, 1e300},
		{"nan", 0, math.NaN()},
		{"inf", 0, math.Inf(1)},
		{"-inf", 0, math.Inf(-1)},
	} {
		f.Add([]byte(`[]`), c.s, c.n, c.x)
	}
	f.Fuzz(func(t *testing.T, raw []byte, s string, n int64, x float64) {
		sameRows(t, raw)

		// float64(MaxInt64) is 2^63; s cut in half may split a rune.
		ts := []relation.Tuple{
			{relation.String(s), relation.Int(n), relation.Float(x), relation.Bool(n%2 == 0), relation.Null()},
			{relation.Float(float64(n)), relation.Float(-x), relation.String(s[len(s)/2:])},
			{},
		}
		want, wantErr := json.Marshal(EncodeTuples(ts))
		got, gotErr := appendRows(nil, ts)
		if wantErr != nil {
			var refused *json.UnsupportedValueError
			_, lineErr := AppendDelivery(nil, ur.ObjectDelivery{Tuples: ts})
			if !errors.As(gotErr, &refused) || !errors.As(lineErr, &refused) {
				t.Fatalf("%v: encoding/json refuses it (%v), rows return %v and the line %v", ts, wantErr, gotErr, lineErr)
			}
			return
		}
		if gotErr != nil || string(got) != string(want) {
			t.Fatalf("%v encodes as\n %s (%v)\nwant\n %s", ts, got, gotErr, want)
		}
		sameRows(t, got)
	})
}

// TestLineAllocs: what appending a line into a reused buffer and
// decoding it allocate, per kind, under ceilings a little above the
// measured counts. A tuples line is appended into the buffer and decoded
// into one string copy, one slab and its row headers, so it costs the
// same at 16 tuples as at 256; the [][]any codec boxed every value both
// ways. The trailer's stats go through encoding/json, one object a stream.
func TestLineAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	tuples := func(n int) ur.ObjectDelivery {
		ts := make([]relation.Tuple, n)
		for i := range ts {
			ts[i] = relation.Tuple{relation.String(fmt.Sprint("make", i%8)), relation.String("escort"),
				relation.Int(int64(1990 + i%10)), relation.Float(float64(i) + 0.25), relation.Bool(i%2 == 0), relation.Null()}
		}
		return ur.ObjectDelivery{Seq: 1, Index: 0, Object: []string{"BluePrice", "Classifieds"}, Tuples: ts}
	}
	counts := map[string][2]float64{}
	stats := &core.QueryStats{Pages: 12, Bytes: 40960, Elapsed: 3 * time.Millisecond, CacheHits: 30, Reused: 4}
	for _, c := range []struct {
		name           string
		ev             Event
		encode, decode float64
	}{
		{"meta", Event{Kind: KindMeta, Meta: Meta{RequestID: "r-000001", Query: "SELECT Make, Model WHERE Make='ford'",
			Schema: []string{"Make", "Model"}, ResumeToken: "92f6072440e96a5ed5d6ac83"}}, 0, 3},
		{"tuples/16", Event{Kind: KindTuples, Delivery: tuples(16)}, 0, 5},
		{"tuples/256", Event{Kind: KindTuples, Delivery: tuples(256)}, 0, 5},
		{"unavailable", Event{Kind: KindUnavailable, Delivery: ur.ObjectDelivery{Seq: 2, Index: 1, Object: []string{"Dealers"},
			Failure: &ur.SiteFailure{Object: []string{"Dealers"}, Host: "dealers.example", Kind: "outage", Err: "connection refused"}}}, 0, 5},
		{"trailer", Event{Kind: KindTrailer, Seq: 3, Trailer: &Trailer{Tuples: 256, Objects: 2, Stats: stats}}, 2, 10},
	} {
		buf, err := AppendEvent(nil, c.ev)
		if err != nil {
			t.Fatal(err)
		}
		line := slices.Clone(buf)
		encode := testing.AllocsPerRun(20, func() {
			if buf, err = AppendEvent(buf[:0], c.ev); err != nil {
				t.Fatal(err)
			}
		})
		decode := testing.AllocsPerRun(20, func() {
			if _, err := Decode(line); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations to append the line (ceiling %.0f), %.0f to decode it (ceiling %.0f)",
			c.name, encode, c.encode, decode, c.decode)
		counts[c.name] = [2]float64{encode, decode}
		if encode > c.encode || decode > c.decode {
			t.Errorf("a %s line allocates %.0f times to append and %.0f to decode, ceilings %.0f and %.0f",
				c.name, encode, decode, c.encode, c.decode)
		}
	}
	if counts["tuples/16"] != counts["tuples/256"] {
		t.Errorf("a tuples line allocates %v at 16 tuples and %v at 256: a cost per tuple", counts["tuples/16"], counts["tuples/256"])
	}
}
