package wire

import (
	"encoding/json"
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
				StaleServed: 1, Report: "1 of 3 objects unavailable\n"}}),
		`{"event":"trailer","seq":4,"tuples":2,"objects":3,"skipped":["Lease: no binding for Term"],"degradation":{"unavailable":[{"Object":["Dealers"],"Host":"dealers.example","Kind":"outage","Err":"connection refused"}],"stale_served":1,"report":"1 of 3 objects unavailable\n"},"stats":null}`},
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
		if ev := roundTrip(t, DeliveryLine(d)); !reflect.DeepEqual(ev.Delivery, d) {
			t.Errorf("%s: delivery came back as\n %+v\nwant\n %+v", name, ev.Delivery, d)
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
		if ev := roundTrip(t, TrailerLine(9, tl)); ev.Kind != KindTrailer || !reflect.DeepEqual(*ev.Trailer, tl) {
			t.Errorf("trailer came back as %+v, want %+v", ev.Trailer, tl)
		}
	}

	body := ErrorBody{Code: CodeDeadline, Status: 504, Message: "budget spent", RequestID: "r-1"}
	if ev := roundTrip(t, ErrorLine(5, body)); ev.Kind != KindError || ev.Error != body {
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
	for _, line := range []string{``, `{`, `[]`, `{"seq":1}`, `{"event":""}`, `{"event":"tuples","tuples":[[{}]]}`,
		`{"event":"tuples","tuples":[[1e999]]}`, `{"event":"meta","schema":7}`} {
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

// FuzzDecode: the NDJSON decoder reads bytes a network handed it. No
// input may panic it, and a delivery it accepts must survive
// re-encoding — what the client resumes from is what the server meant.
func FuzzDecode(f *testing.F) {
	for _, g := range goldenLines {
		f.Add([]byte(g.text))
		// The mid-line cuts loadgen's killedBody produces: a line short of
		// its last three bytes, and one cut anywhere.
		f.Add([]byte(g.text[:len(g.text)-3]))
		f.Add([]byte(g.text[:len(g.text)/2]))
	}
	f.Add([]byte(`{"event":"tuples","seq":1,"object":[],"tuples":[[5.0,-0.0,1e3,9223372036854775808]]}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		ev, err := Decode(line)
		if err != nil {
			return
		}
		switch ev.Kind {
		case KindTuples, KindUnavailable, KindSkipped:
			again, err := Decode(mustMarshal(t, DeliveryLine(ev.Delivery)))
			if err != nil {
				t.Fatalf("re-encoded delivery does not decode: %v", err)
			}
			if !sameDelivery(ev.Delivery, again.Delivery) {
				t.Fatalf("delivery changed in a round trip:\n %+v\n %+v", ev.Delivery, again.Delivery)
			}
		}
	})
}
