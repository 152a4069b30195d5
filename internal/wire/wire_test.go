package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"webbase/internal/core"
	"webbase/internal/relation"
	"webbase/internal/ur"
)

// One line of each kind, byte for byte as the server has always written
// it: the literals pin field order, which the line structs declare once.
// They also seed FuzzDecode.
var goldenLines = []struct {
	kind string
	line any
	text string
}{
	{KindMeta,
		MetaLine(Meta{RequestID: "r-000001", Query: "SELECT Make, Price WHERE Make = saab", Schema: []string{"Make", "Price"}, ResumeToken: "92f6072440e96a5ed5d6ac83"}),
		`{"event":"meta","seq":0,"request_id":"r-000001","query":"SELECT Make, Price WHERE Make = saab","schema":["Make","Price"],"resume_token":"92f6072440e96a5ed5d6ac83"}`},
	{KindTuples,
		DeliveryLine(ur.ObjectDelivery{Seq: 1, Index: 0, Object: []string{"BluePrice", "Classifieds"},
			Tuples: []relation.Tuple{{relation.String("saab"), relation.Int(14110)}, {relation.String("saab"), relation.Null()}}}),
		`{"event":"tuples","seq":1,"index":0,"object":["BluePrice","Classifieds"],"count":2,"tuples":[["saab",14110],["saab",null]]}`},
	{KindTuples,
		DeliveryLine(ur.ObjectDelivery{Seq: 1, Index: -1, Buffered: true, Tuples: []relation.Tuple{}}),
		`{"event":"tuples","seq":1,"index":-1,"buffered":true,"count":0,"tuples":[]}`},
	{KindUnavailable,
		DeliveryLine(ur.ObjectDelivery{Seq: 2, Index: 1, Object: []string{"Dealers"},
			Failure: &ur.SiteFailure{Object: []string{"Dealers"}, Host: "dealers.example", Kind: "outage", Err: "connection refused"}}),
		`{"event":"unavailable","seq":2,"index":1,"object":["Dealers"],"failure":{"Object":["Dealers"],"Host":"dealers.example","Kind":"outage","Err":"connection refused"}}`},
	{KindSkipped,
		DeliveryLine(ur.ObjectDelivery{Seq: 3, Index: 2, Object: []string{"Lease"}, Skipped: "Lease: no binding for Term"}),
		`{"event":"skipped","seq":3,"index":2,"object":["Lease"],"reason":"Lease: no binding for Term"}`},
	{KindKeepalive, KeepaliveLine(), `{"event":"keepalive"}`},
	{KindError,
		ErrorLine(4, ErrorBody{Code: CodeSiteOutage, Status: 502, Message: "newsday is down", RequestID: "r-000001"}),
		`{"event":"error","seq":4,"error":{"code":"site-outage","status":502,"message":"newsday is down","request_id":"r-000001"}}`},
	{KindTrailer,
		TrailerLine(4, Trailer{Tuples: 2, Objects: 3, Skipped: []string{"Lease: no binding for Term"},
			Degradation: &Degradation{Unavailable: []ur.SiteFailure{{Object: []string{"Dealers"}, Host: "dealers.example", Kind: "outage", Err: "connection refused"}},
				StaleServed: 1, Report: "1 of 3 objects unavailable\n"},
			Stats: &core.QueryStats{Pages: 12, CacheHits: 30, Reused: 4, StaleServed: 1, DegradedObjects: 1}}),
		`{"event":"trailer","seq":4,"tuples":2,"objects":3,"skipped":["Lease: no binding for Term"],"degradation":{"unavailable":[{"Object":["Dealers"],"Host":"dealers.example","Kind":"outage","Err":"connection refused"}],"stale_served":1,"report":"1 of 3 objects unavailable\n"},` +
			`"stats":{"Pages":12,"Bytes":0,"Elapsed":0,"Simulated":0,"CacheHits":30,"Deduped":0,"Reused":4,"LimiterWait":0,"PeakInFlight":0,"Retries":0,"StaleServed":1,"BreakerRejects":0,"DegradedObjects":1,"AdmissionWait":0,"Hedges":0,"HedgeWins":0,"BulkheadSheds":0,"BudgetSheds":0,"HedgesSuppressed":0,"DriftDetected":0,"PrunedFetches":0,"PrunedByReason":null}}`},
}

func TestGoldenLines(t *testing.T) {
	for _, g := range goldenLines {
		if got := mustMarshal(t, g.line); string(got) != g.text {
			t.Errorf("%s line encodes as\n %s\nwant\n %s", g.kind, got, g.text)
		}
		ev, err := Decode([]byte(g.text))
		if err != nil || ev.Kind != g.kind {
			t.Errorf("Decode(%s) = kind %q, %v", g.text, ev.Kind, err)
		}
	}
}

// roundTrip is Decode(json.Marshal(line)).
func roundTrip(t *testing.T, line any) Event {
	t.Helper()
	raw := mustMarshal(t, line)
	ev, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode(%s): %v", raw, err)
	}
	return ev
}

// TestRoundTrip: what a line constructor was given is what Decode hands
// back, for every constructor and every shape a field can take.
func TestRoundTrip(t *testing.T) {
	meta := Meta{RequestID: "c-000007", Query: "SELECT Make", Schema: []string{"Make"}, ResumeToken: "tok"}
	if ev := roundTrip(t, MetaLine(meta)); ev.Kind != KindMeta || !reflect.DeepEqual(ev.Meta, meta) {
		t.Errorf("meta came back as %+v", ev)
	}

	deliveries := map[string]ur.ObjectDelivery{
		"every value kind": {Seq: 1, Index: 0, Object: []string{"A", "B"}, Tuples: []relation.Tuple{
			{relation.String("x"), relation.Int(-3), relation.Float(2.5), relation.Bool(true), relation.Null()},
			{relation.String(""), relation.Int(1 << 60), relation.Float(1e300), relation.Bool(false), relation.Null()},
		}},
		"buffered, no object": {Seq: 1, Index: -1, Buffered: true, Tuples: []relation.Tuple{{relation.Int(1)}}},
		"no tuples":           {Seq: 2, Index: 1, Object: []string{"A"}, Tuples: []relation.Tuple{}},
		"unavailable": {Seq: 3, Index: 2, Object: []string{"A"},
			Failure: &ur.SiteFailure{Object: []string{"A"}, Host: "a.example", Kind: "drift", Err: "no table"}},
		"skipped": {Seq: 4, Index: 3, Object: []string{"A"}, Skipped: "A: unbound"},
	}
	for name, d := range deliveries {
		if ev := roundTrip(t, DeliveryLine(d)); ev.Seq != d.Seq || !reflect.DeepEqual(ev.Delivery, d) {
			t.Errorf("%s: delivery came back as seq %d\n %+v\nwant\n %+v", name, ev.Seq, ev.Delivery, d)
		}
	}

	// The JSON number grammar has no float/int distinction for integral
	// values: 5.0 travels as 5 and arrives an Int.
	ev := roundTrip(t, DeliveryLine(ur.ObjectDelivery{Seq: 1, Tuples: []relation.Tuple{{relation.Float(5)}}}))
	if got := ev.Delivery.Tuples[0][0]; got != relation.Int(5) {
		t.Errorf("Float(5) arrived as %#v, want Int(5)", got)
	}

	trailers := []Trailer{
		{Tuples: 75, Objects: 2, Stats: &core.QueryStats{Pages: 48, Deduped: 3}},
		{Tuples: 1, Objects: 3, Skipped: []string{"s"}, Stats: &core.QueryStats{},
			Degradation: &Degradation{Unavailable: []ur.SiteFailure{{Host: "h"}}, StaleServed: 2, Report: "r\n"}},
	}
	for _, tl := range trailers {
		if ev := roundTrip(t, TrailerLine(9, tl)); ev.Kind != KindTrailer || ev.Seq != 9 || !reflect.DeepEqual(*ev.Trailer, tl) {
			t.Errorf("trailer came back as seq %d %+v, want seq 9 %+v", ev.Seq, ev.Trailer, tl)
		}
	}

	body := ErrorBody{Code: CodeDeadline, Status: 504, Message: "budget spent", RequestID: "r-1"}
	if ev := roundTrip(t, ErrorLine(5, body)); ev.Kind != KindError || ev.Seq != 5 || ev.Error != body {
		t.Errorf("error came back as %+v", ev)
	}
	if got, err := DecodeEnvelope(mustMarshal(t, Envelope{Error: body})); err != nil || got != body {
		t.Errorf("envelope came back as %+v, %v", got, err)
	}
	if ev := roundTrip(t, KeepaliveLine()); ev.Kind != KindKeepalive {
		t.Errorf("keepalive came back as %+v", ev)
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestDecodeRefusals: what is not a line is an error that quotes it, cut
// to a bounded length; a kind from the future is handed back by name.
func TestDecodeRefusals(t *testing.T) {
	for _, line := range []string{``, `{`, `[]`, `{"seq":1}`, `{"event":""}`, `{"event":"tuples","count":1,"tuples":[[{}]]}`,
		`{"event":"tuples","count":1,"tuples":[[[1]]]}`, `{"event":"tuples","tuples":"[]"}`,
		`{"event":"tuples","count":1,"tuples":[[1e999]]}`, `{"event":"meta","schema":7}`,
		// A count that is not the number of rows: one tuple under a total of three.
		`{"event":"tuples","seq":1,"count":3,"tuples":[[1]]}`,
		// A trailer without its stats: the server always writes them.
		`{"event":"trailer","seq":2,"tuples":0,"objects":1}`,
		`{"event":"trailer","seq":2,"tuples":0,"objects":1,"stats":null}`,
		// Nested past what encoding/json takes.
		`{"event":"keepalive","x":` + strings.Repeat("[", 20000) + strings.Repeat("]", 20000) + `}`} {
		if ev, err := Decode([]byte(line)); err == nil {
			t.Errorf("Decode(%q) = %+v, want an error", line, ev)
		}
	}
	_, err := Decode([]byte(strings.Repeat("x", 500)))
	if err == nil || len(err.Error()) > 300 {
		t.Errorf("a 500-byte undecodable line reports as %v", err)
	}
	if ev, err := Decode([]byte(`{"event":"freshness","seq":3}`)); err != nil || ev.Kind != "freshness" {
		t.Errorf("unknown kind: %+v, %v", ev, err)
	}
	if _, err := DecodeEnvelope([]byte(`{"error":{}}`)); err == nil {
		t.Error("an envelope without a code decoded")
	}
}

// TestCodeTable pins the code set and its statuses; client's
// TestCodeSentinels holds the client to the same set.
func TestCodeTable(t *testing.T) {
	want := map[string]int{
		"unauthorized": 401, "quota-exhausted": 429, "tenant-saturated": 429, "shedded": 429,
		"body-too-large": 413, "resume-inconsistent": 409, "bad-resume": 400, "bad-query": 400,
		"deadline": 504, "site-drift": 502, "site-outage": 502, "site-answer": 502,
		"client-closed-request": 499, "internal": 500,
	}
	if !reflect.DeepEqual(Status, want) {
		t.Errorf("Status = %v, want %v", Status, want)
	}
	transient := 0
	for code, status := range Status {
		if Transient(code) {
			transient++
			// Retry-After is an answer to "too many requests"; a transient
			// code under any other status would hint nonsense.
			if status != http.StatusTooManyRequests {
				t.Errorf("transient code %s travels as %d, want 429", code, status)
			}
		}
	}
	if transient != 2 || Transient(CodeQuotaExhausted) {
		t.Errorf("%d transient codes (quota-exhausted: %v), want shedded and tenant-saturated only",
			transient, Transient(CodeQuotaExhausted))
	}
}

// sameDelivery is equality up to the two things a trip through the wire
// may change: an integral float arrives an Int, and an empty object list
// arrives as none.
func sameDelivery(a, b ur.ObjectDelivery) bool {
	if len(a.Tuples) != len(b.Tuples) || len(a.Object) != len(b.Object) {
		return false
	}
	for i, t := range a.Tuples {
		if len(t) != len(b.Tuples[i]) {
			return false
		}
		for j, v := range t {
			w := b.Tuples[i][j]
			if v != w && !(v.IsNumeric() && w.IsNumeric() && v.FloatVal() == w.FloatVal()) {
				return false
			}
		}
	}
	a.Tuples, b.Tuples = nil, nil
	if len(a.Object) == 0 {
		a.Object, b.Object = nil, nil
	}
	return reflect.DeepEqual(a, b)
}

// AppendEvent appends ev as the line it was decoded from.
func AppendEvent(dst []byte, ev Event) ([]byte, error) {
	switch ev.Kind {
	case KindMeta:
		return AppendMeta(dst, ev.Meta), nil
	case KindTuples, KindUnavailable, KindSkipped:
		return AppendDelivery(dst, ev.Delivery)
	case KindTrailer:
		return AppendTrailer(dst, ev.Seq, *ev.Trailer)
	case KindError:
		return AppendError(dst, ev.Seq, ev.Error), nil
	}
	return AppendKeepalive(dst), nil
}

// TestAppendGoldenLines: each golden line, decoded and appended again,
// is the same bytes.
func TestAppendGoldenLines(t *testing.T) {
	for _, g := range goldenLines {
		ev, err := Decode([]byte(g.text))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := AppendEvent(nil, ev); err != nil || string(got) != g.text {
			t.Errorf("%s line appends as\n %s (%v)\nwant\n %s", g.kind, got, err, g.text)
		}
	}
}

// lineKeys are the keys of every object a line holds outside its stats,
// which encoding/json reads on both sides.
var lineKeys = []string{"event", "seq", "request_id", "query", "schema", "resume_token", "index", "object",
	"buffered", "count", "tuples", "failure", "reason", "error", "code", "status", "message", "objects",
	"skipped", "degradation", "unavailable", "stale_served", "report", "stats", "Object", "Host", "Kind", "Err"}

// objectKeys returns the keys of each object in line, at any depth, as
// encoding/json unescapes them; nil if line is not JSON.
func objectKeys(line []byte) [][]string {
	dec := json.NewDecoder(bytes.NewReader(line))
	var all [][]string
	var walk func() bool
	walk = func() bool {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		switch tok {
		case json.Delim('{'):
			var keys []string
			for dec.More() {
				k, err := dec.Token()
				if err != nil {
					return false
				}
				keys = append(keys, k.(string))
				if !walk() {
					return false
				}
			}
			all = append(all, keys)
		case json.Delim('['):
			for dec.More() {
				if !walk() {
					return false
				}
			}
		default:
			return true
		}
		_, err = dec.Token() // the closing delimiter
		return err == nil
	}
	if !walk() {
		return nil
	}
	return all
}

// decodeDeviations are where Decode and the encoding/json reading it
// replaced (referenceDecode) may differ on a line: each names the lines
// it covers, and an example line that Decode accepts and the reference
// refuses or reads otherwise.
var decodeDeviations = []struct {
	name    string
	covers  func(line []byte) bool
	example string
}{
	{"a key is matched exactly, not case-folded",
		func(line []byte) bool {
			for _, keys := range objectKeys(line) {
				for _, k := range keys {
					for _, known := range lineKeys {
						if k != known && strings.EqualFold(k, known) {
							return true
						}
					}
				}
			}
			return false
		},
		`{"event":"tuples","seq":1,"Index":3,"count":0,"tuples":[]}`},
	{"a repeated key's last value wins whole, where encoding/json decodes a repeated object into the first",
		func(line []byte) bool {
			for _, keys := range objectKeys(line) {
				seen := map[string]bool{}
				for _, k := range keys {
					if seen[k] {
						return true
					}
					seen[k] = true
				}
			}
			return false
		},
		`{"event":"unavailable","seq":1,"index":0,"object":null,"failure":{"Host":"a"},"failure":{"Kind":"b"}}`},
}

// deviation names the deviation that covers line, "" if none does.
func deviation(line []byte) string {
	for _, dv := range decodeDeviations {
		if dv.covers(line) {
			return dv.name
		}
	}
	return ""
}

func TestDecodeDeviations(t *testing.T) {
	for _, dv := range decodeDeviations {
		line := []byte(dv.example)
		if !dv.covers(line) {
			t.Errorf("%s: the example %s is not covered", dv.name, line)
		}
		ev, err := Decode(line)
		if err != nil {
			t.Errorf("%s: Decode(%s): %v", dv.name, line, err)
			continue
		}
		if ref, err := referenceDecode(line); err == nil && reflect.DeepEqual(ev, ref) {
			t.Errorf("%s: the example %s reads the same both ways", dv.name, line)
		}
	}
}

// FuzzDecode: the NDJSON decoder reads bytes a network handed it. No
// input may panic it; it refuses every line encoding/json refused
// (referenceDecode), and reads every line it accepts as encoding/json
// did, but where a named deviation covers the line; and a delivery it
// accepts must survive re-encoding — what the client resumes from is
// what the server meant.
func FuzzDecode(f *testing.F) {
	for _, g := range goldenLines {
		f.Add([]byte(g.text))
		// The mid-line cuts loadgen's killedBody produces: a line short of
		// its last three bytes, and one cut anywhere.
		f.Add([]byte(g.text[:len(g.text)-3]))
		f.Add([]byte(g.text[:len(g.text)/2]))
	}
	f.Add([]byte(`{"event":"tuples","seq":1,"object":[],"count":1,"tuples":[[5.0,-0.0,1e3,9223372036854775808]]}`))
	f.Add([]byte(` { "count" : 1 , "tuples" : [ [ "\u00e9" , 01 ] ] , "event" : "tuples" , "index" : -0 , "x" : [ { } ] } `))
	f.Add([]byte(`{"seq":3,"event":"error","error":{"code":"deadline","status":504,"extra":null}}`))
	for _, dv := range decodeDeviations {
		f.Add([]byte(dv.example))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		ev, err := Decode(line)
		if err != nil {
			return
		}
		ref, refErr := referenceDecode(line)
		if (refErr != nil || !reflect.DeepEqual(ev, ref)) && deviation(line) == "" {
			t.Fatalf("%q: Decode reads\n %+v\nthe reference (%v)\n %+v", line, ev, refErr, ref)
		}
		switch ev.Kind {
		case KindTuples, KindUnavailable, KindSkipped:
			raw, err := AppendDelivery(nil, ev.Delivery)
			if err != nil {
				t.Fatal(err)
			}
			again, err := Decode(raw)
			if err != nil {
				t.Fatalf("re-encoded delivery does not decode: %v", err)
			}
			if !sameDelivery(ev.Delivery, again.Delivery) {
				t.Fatalf("delivery changed in a round trip:\n %+v\n %+v", ev.Delivery, again.Delivery)
			}
		}
	})
}

// fullStats sets every field of a QueryStats from n, and PrunedByReason
// to nil, empty or two reasons by shape. A field of a kind it does not
// know fails the test: the line codec has to be taught it first.
func fullStats(t *testing.T, n int64, s string, shape uint8) *core.QueryStats {
	qs := new(core.QueryStats)
	v := reflect.ValueOf(qs).Elem()
	for i := range v.NumField() {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(n + int64(i))
		case reflect.Map:
			switch shape >> 6 {
			case 1:
				f.Set(reflect.MakeMap(f.Type()))
			case 2, 3:
				f.Set(reflect.ValueOf(map[string]int64{s: n, "limit": 1}))
			}
		default:
			t.Fatalf("QueryStats.%s is a %s, which the trailer codec does not know", v.Type().Field(i).Name, f.Kind())
		}
	}
	return qs
}

// lineEvents builds one line of every kind from the fuzzer's inputs, with
// each list nil, empty or full by two bits of shape, and returns each with
// the reference struct encoding/json wrote for it.
func lineEvents(t *testing.T, s string, n int64, x float64, shape uint8) (evs []Event, refs []any) {
	list := func(bit uint) []string {
		switch shape >> bit & 3 {
		case 0:
			return nil
		case 1:
			return []string{}
		}
		return []string{s, s[len(s)/2:]}
	}
	add := func(ev Event, ref any) {
		evs, refs = append(evs, ev), append(refs, ref)
	}
	meta := Meta{RequestID: s, Query: "SELECT " + s, Schema: list(0), ResumeToken: s}
	add(Event{Kind: KindMeta, Meta: meta}, MetaLine(meta))
	tuples := ur.ObjectDelivery{Seq: int(n), Index: int(n >> 1), Object: list(2), Buffered: shape&16 != 0,
		Tuples: []relation.Tuple{
			{relation.String(s), relation.Int(n), relation.Float(x), relation.Bool(n%2 == 0), relation.Null()},
			{relation.Float(float64(n)), relation.Float(-x), relation.String(s[len(s)/2:])},
			{},
		}}
	if shape&32 != 0 {
		tuples.Tuples = nil
	}
	failure := ur.SiteFailure{Object: list(4), Host: s, Kind: "outage", Err: s + "\n"}
	for _, d := range []ur.ObjectDelivery{
		tuples,
		{Seq: int(n), Index: -1, Object: list(2), Failure: &failure},
		{Seq: 1, Index: int(n), Object: list(4), Skipped: s + " skipped"},
	} {
		add(Event{Kind: KindTuples, Delivery: d}, DeliveryLine(d))
	}
	body := ErrorBody{Code: s, Status: int(n), Message: "<" + s + ">", RequestID: s}
	add(Event{Kind: KindError, Seq: int(n), Error: body}, ErrorLine(int(n), body))
	trailer := Trailer{Tuples: int(n), Objects: int(n >> 2), Skipped: list(6), Stats: fullStats(t, n, s, shape)}
	if shape&8 != 0 {
		trailer.Degradation = &Degradation{Unavailable: []ur.SiteFailure{failure, {}}, StaleServed: n, Report: s}
		if shape&4 != 0 {
			trailer.Degradation.Unavailable = nil
		}
	}
	add(Event{Kind: KindTrailer, Seq: int(n), Trailer: &trailer}, TrailerLine(int(n), trailer))
	add(Event{Kind: KindKeepalive}, KeepaliveLine())
	return evs, refs
}

// FuzzLineCodec holds the line codec to encoding/json's (reference_test.go)
// on lines of every kind: each appends to exactly the bytes json.Marshal
// writes for its line struct, or both refuse a non-finite float (and dst
// comes back as it was), and Decode reads those bytes as the reference
// decoder does.
func FuzzLineCodec(f *testing.F) {
	f.Add("r-000001", int64(14110), 2.5, uint8(0))
	f.Add(`<a href="x">&amp;</a>`, int64(-1), 1e21, uint8(0x55))
	f.Add("line para end", int64(math.MaxInt64), 1e-7, uint8(0xaa))
	f.Add("\x00\x01\b\f\n\r\t\x1f\x7f\\\"", int64(math.MinInt64), 5.0, uint8(0xff))
	f.Add("\xff\xfe bad \xed\xa0\x80 utf-8", int64(1<<53), -0.0, uint8(0x3c))
	f.Add("caf\xc3\xa9", int64(7), math.NaN(), uint8(0x18))
	f.Add("", int64(0), math.Inf(-1), uint8(0x0f))
	f.Fuzz(func(t *testing.T, s string, n int64, x float64, shape uint8) {
		evs, refs := lineEvents(t, s, n, x, shape)
		for i, ev := range evs {
			want, wantErr := json.Marshal(refs[i])
			got, gotErr := AppendEvent([]byte("prefix"), ev)
			if wantErr != nil {
				var refused *json.UnsupportedValueError
				if !errors.As(gotErr, &refused) || string(got) != "prefix" {
					t.Fatalf("%s line: encoding/json refuses it (%v); appending returns %q, %v", ev.Kind, wantErr, got, gotErr)
				}
				continue
			}
			if gotErr != nil || string(got) != "prefix"+string(want) {
				t.Fatalf("%s line appends as\n %s (%v)\nwant\n prefix%s", ev.Kind, got, gotErr, want)
			}
			dec, err := Decode(want)
			ref, refErr := referenceDecode(want)
			if err != nil || refErr != nil || !reflect.DeepEqual(dec, ref) {
				t.Fatalf("%s decodes as\n %+v (%v)\nthe reference\n %+v (%v)", want, dec, err, ref, refErr)
			}
		}
	})
}
