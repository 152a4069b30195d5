package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webbase/internal/relation"
	"webbase/internal/wire"
)

// noSleep makes retry loops instant in tests.
func noSleep(context.Context, time.Duration) error { return nil }

func newTestClient(t *testing.T, url string, maxAttempts int) *Client {
	t.Helper()
	c, err := New(Config{BaseURL: url, MaxAttempts: maxAttempts, sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// envelopeHandler answers every request with one scripted error envelope
// and counts the requests it saw.
func envelopeHandler(code string, status int, hits *atomic.Int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		fmt.Fprintf(w, `{"error":{"code":%q,"status":%d,"message":"scripted failure","request_id":"r-1"}}`+"\n", code, status)
	}
}

// TestErrorEnvelopeTable drives the client through the server's whole
// error-envelope table and asserts two things per row: the error matches
// its sentinel under errors.Is, and the client retried exactly when the
// class is retryable — shedded and tenant-saturated spend the attempt
// budget, everything else fails on the first answer.
func TestErrorEnvelopeTable(t *testing.T) {
	const budget = 3
	cases := []struct {
		code     string
		status   int
		sentinel error
		attempts int64 // requests the server should see
	}{
		{"bad-query", 400, ErrBadQuery, 1},
		{"bad-resume", 400, ErrBadResume, 1},
		{"unauthorized", 401, ErrUnauthorized, 1},
		{"resume-inconsistent", 409, ErrResumeInconsistent, 1},
		{"body-too-large", 413, ErrBodyTooLarge, 1},
		{"quota-exhausted", 429, ErrQuotaExhausted, 1},
		{"shedded", 429, ErrShedded, budget},
		{"tenant-saturated", 429, ErrTenantSaturated, budget},
		{"site-outage", 502, ErrSiteOutage, 1},
		{"site-drift", 502, ErrSiteDrift, 1},
		{"site-answer", 502, ErrSiteAnswer, 1},
		{"deadline", 504, ErrDeadline, 1},
		{"internal", 500, ErrInternal, 1},
	}
	for _, tc := range cases {
		t.Run(tc.code, func(t *testing.T) {
			var hits atomic.Int64
			ts := httptest.NewServer(envelopeHandler(tc.code, tc.status, &hits))
			defer ts.Close()

			c := newTestClient(t, ts.URL, budget)
			_, err := c.Query(context.Background(), "SELECT Make")
			if err == nil {
				t.Fatal("Query succeeded against a scripted failure")
			}
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("err = %v, want errors.Is %v", err, tc.sentinel)
			}
			var ae *APIError
			if !errors.As(err, &ae) || ae.Code != tc.code || ae.Status != tc.status {
				t.Fatalf("err = %v, want APIError{%s, %d}", err, tc.code, tc.status)
			}
			if tc.attempts == budget && !errors.Is(err, ErrRetriesExhausted) {
				t.Fatalf("retryable class err = %v, want ErrRetriesExhausted wrap", err)
			}
			if hits.Load() != tc.attempts {
				t.Fatalf("server saw %d requests, want %d", hits.Load(), tc.attempts)
			}
		})
	}
}

// TestCodeSentinels: server and client agree on the code set. Every code
// internal/wire declares has a sentinel here, except the one no client
// is left to read, and there is no sentinel for a code wire does not
// have; what wire calls transient is exactly what the envelope table
// above retries.
func TestCodeSentinels(t *testing.T) {
	for code := range wire.Status {
		if _, ok := codeSentinel[code]; ok == (code == wire.CodeClientClosed) {
			t.Errorf("code %s: has a sentinel = %v", code, ok)
		}
	}
	seen := map[error]string{}
	for code, sentinel := range codeSentinel {
		if _, ok := wire.Status[code]; !ok {
			t.Errorf("sentinel %v is for %q, which is not a wire code", sentinel, code)
		}
		if prev, dup := seen[sentinel]; dup {
			t.Errorf("codes %s and %s share sentinel %v", prev, code, sentinel)
		}
		seen[sentinel] = code
		ae := &APIError{Code: code, Status: wire.Status[code]}
		if got, want := retryable(ae, false), wire.Transient(code); got != want {
			t.Errorf("code %s: retryable = %v, transient = %v", code, got, want)
		}
	}
}

// scriptedStream writes NDJSON lines verbatim.
func scriptedStream(lines ...string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		f, _ := w.(http.Flusher)
		for _, l := range lines {
			fmt.Fprintln(w, l)
			if f != nil {
				f.Flush()
			}
		}
	}
}

const scriptedMeta = `{"event":"meta","seq":0,"request_id":"r-1","query":"SELECT Make","schema":["Make"],"resume_token":"tok-1"}`

// TestMidStreamErrorEvent: a terminal error event after deliveries is a
// typed failure on the same taxonomy — no retry for a non-retryable
// class, and the deliveries before it are kept.
func TestMidStreamErrorEvent(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		scriptedStream(
			scriptedMeta,
			`{"event":"tuples","seq":1,"index":0,"object":["cars"],"count":1,"tuples":[["jaguar"]]}`,
			`{"event":"error","seq":2,"error":{"code":"deadline","status":504,"message":"budget exhausted","request_id":"r-1"}}`,
		)(w, r)
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, 3)
	st, err := c.Query(context.Background(), "SELECT Make")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var got int
	for st.Next() {
		got += len(st.Delivery().Tuples)
	}
	if !errors.Is(st.Err(), ErrDeadline) {
		t.Fatalf("Err = %v, want ErrDeadline", st.Err())
	}
	if got != 1 {
		t.Fatalf("delivered %d tuples before the error, want 1", got)
	}
	if hits.Load() != 1 {
		t.Fatalf("server saw %d requests, want 1 (deadline is not retryable)", hits.Load())
	}
}

// TestMidStreamRetryableErrorResumes: a retryable mid-stream error event
// triggers a reconnect that carries the resume offset and token, and the
// stitched iteration delivers each event exactly once.
func TestMidStreamRetryableErrorResumes(t *testing.T) {
	var hits atomic.Int64
	var gotResume struct {
		sync.Mutex
		index, token string
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := hits.Add(1)
		if n == 1 {
			scriptedStream(
				scriptedMeta,
				`{"event":"tuples","seq":1,"index":0,"object":["cars"],"count":1,"tuples":[["jaguar"]]}`,
				`{"event":"error","seq":2,"error":{"code":"shedded","status":429,"message":"overload","request_id":"r-1"}}`,
			)(w, r)
			return
		}
		var qr wire.QueryRequest
		readJSON(r, &qr)
		gotResume.Lock()
		if qr.LastEventIndex != nil {
			gotResume.index = fmt.Sprint(*qr.LastEventIndex)
		}
		gotResume.token = qr.ResumeToken
		gotResume.Unlock()
		scriptedStream(
			`{"event":"tuples","seq":2,"index":1,"object":["dealers"],"count":1,"tuples":[["saab"]]}`,
			`{"event":"trailer","seq":3,"tuples":2,"objects":2,"stats":{}}`,
		)(w, r)
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, 3)
	st, err := c.Query(context.Background(), "SELECT Make")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var tuples []string
	for st.Next() {
		for _, tp := range st.Delivery().Tuples {
			tuples = append(tuples, fmt.Sprint(tp))
		}
	}
	if st.Err() != nil {
		t.Fatal(st.Err())
	}
	if len(tuples) != 2 {
		t.Fatalf("delivered %v, want 2 tuples exactly once", tuples)
	}
	if st.Trailer() == nil || st.Trailer().Tuples != 2 {
		t.Fatalf("trailer = %+v", st.Trailer())
	}
	gotResume.Lock()
	defer gotResume.Unlock()
	if gotResume.index != "1" || gotResume.token != "tok-1" {
		t.Fatalf("resume carried index=%q token=%q, want 1/tok-1", gotResume.index, gotResume.token)
	}
	if st.Attempts() != 2 {
		t.Fatalf("attempts = %d, want 2", st.Attempts())
	}
}

// seqGap streams the scripted lines after the meta event and returns the
// tuples the caller was handed and the stream's end.
func seqGap(t *testing.T, lines ...string) ([]string, *Stream) {
	t.Helper()
	ts := httptest.NewServer(scriptedStream(append([]string{scriptedMeta}, lines...)...))
	t.Cleanup(ts.Close)
	st, err := newTestClient(t, ts.URL, 3).Query(context.Background(), "SELECT Make")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	var got []string
	for st.Next() {
		for _, tp := range st.Delivery().Tuples {
			got = append(got, tp[0].Str())
		}
	}
	return got, st
}

// TestSeqGapSkippedDelivery: a delivery numbered past the next one means
// one went missing between them. The stream ends there with ErrProtocol,
// and neither the later delivery nor the trailer reaches the caller.
func TestSeqGapSkippedDelivery(t *testing.T) {
	got, st := seqGap(t,
		`{"event":"tuples","seq":1,"index":0,"object":["cars"],"count":1,"tuples":[["jaguar"]]}`,
		`{"event":"tuples","seq":3,"index":2,"object":["leases"],"count":1,"tuples":[["bmw"]]}`,
		`{"event":"trailer","seq":4,"tuples":3,"objects":3,"stats":{}}`,
	)
	if !errors.Is(st.Err(), ErrProtocol) || st.Trailer() != nil {
		t.Fatalf("Err = %v, trailer = %+v; want ErrProtocol and no trailer", st.Err(), st.Trailer())
	}
	if len(got) != 1 || got[0] != "jaguar" {
		t.Fatalf("delivered %v, want only the delivery before the gap", got)
	}
}

// TestSeqGapMissingLastDelivery: a trailer numbered past the next delivery
// closes an answer whose last delivery never arrived, under totals that
// count it. The stream ends with ErrProtocol, not that trailer.
func TestSeqGapMissingLastDelivery(t *testing.T) {
	got, st := seqGap(t,
		`{"event":"tuples","seq":1,"index":0,"object":["cars"],"count":1,"tuples":[["jaguar"]]}`,
		`{"event":"trailer","seq":3,"tuples":2,"objects":2,"stats":{}}`,
	)
	if !errors.Is(st.Err(), ErrProtocol) || st.Trailer() != nil {
		t.Fatalf("Err = %v, trailer = %+v; want ErrProtocol and no trailer", st.Err(), st.Trailer())
	}
	if len(got) != 1 {
		t.Fatalf("delivered %v, want the one delivery that arrived", got)
	}
}

// TestValueKindsRoundTrip: wire tuples decode to the right relational
// kinds — strings, ints, floats, bools, nulls.
func TestValueKindsRoundTrip(t *testing.T) {
	ts := httptest.NewServer(scriptedStream(
		scriptedMeta,
		`{"event":"tuples","seq":1,"index":0,"object":["x"],"count":1,"tuples":[["s",7,2.5,true,null]]}`,
		`{"event":"trailer","seq":2,"tuples":1,"objects":1,"stats":{}}`,
	))
	defer ts.Close()

	c := newTestClient(t, ts.URL, 1)
	st, err := c.Query(context.Background(), "SELECT X")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if !st.Next() {
		t.Fatal(st.Err())
	}
	tp := st.Delivery().Tuples[0]
	kinds := []relation.Kind{relation.KindString, relation.KindInt, relation.KindFloat, relation.KindBool, relation.KindNull}
	for i, want := range kinds {
		if tp[i].Kind() != want {
			t.Fatalf("value %d kind = %v, want %v", i, tp[i].Kind(), want)
		}
	}
	if tp[1].IntVal() != 7 || tp[2].FloatVal() != 2.5 || tp[3].BoolVal() != true {
		t.Fatalf("values decoded wrong: %v", tp)
	}
}

// TestContextCancellationMidStream: canceling the caller's context ends
// iteration with the context error — no reconnect attempts.
func TestContextCancellationMidStream(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, _ := w.(http.Flusher)
		fmt.Fprintln(w, scriptedMeta)
		fmt.Fprintln(w, `{"event":"tuples","seq":1,"index":0,"object":["x"],"count":0,"tuples":[]}`)
		if f != nil {
			f.Flush()
		}
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer ts.Close()
	defer close(release)

	ctx, cancel := context.WithCancel(context.Background())
	c := newTestClient(t, ts.URL, 5)
	st, err := c.Query(ctx, "SELECT Make")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if !st.Next() {
		t.Fatal(st.Err())
	}
	cancel()
	if st.Next() {
		t.Fatal("Next delivered after cancellation")
	}
	if !errors.Is(st.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", st.Err())
	}
	if st.Attempts() != 1 {
		t.Fatalf("attempts = %d, want 1 — cancellation must not retry", st.Attempts())
	}
}

// TestAttemptTimeout: a server that never sends the first event trips
// the per-attempt watchdog; each timeout burns one attempt until the
// budget ends.
func TestAttemptTimeout(t *testing.T) {
	var hits atomic.Int64
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusOK)
		if f, ok := w.(http.Flusher); ok {
			f.Flush() // headers out; then stall before the meta event
		}
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer ts.Close()
	defer close(release)

	c, err := New(Config{BaseURL: ts.URL, MaxAttempts: 2, AttemptTimeout: 50 * time.Millisecond, sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Query(context.Background(), "SELECT Make")
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if hits.Load() != 2 {
		t.Fatalf("server saw %d attempts, want 2", hits.Load())
	}
}

// TestBackoffDeterministicJitter: the schedule is a pure function of
// (request ID, attempt), capped, and distinct across request IDs.
func TestBackoffDeterministicJitter(t *testing.T) {
	c, err := New(Config{BaseURL: "http://x", BackoffBase: 100 * time.Millisecond, BackoffMax: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 2; attempt <= 8; attempt++ {
		d1 := c.backoffDelay("r-1", attempt)
		d2 := c.backoffDelay("r-1", attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: backoff not deterministic: %v vs %v", attempt, d1, d2)
		}
		if d1 > c.backoffMax {
			t.Fatalf("attempt %d: backoff %v exceeds cap %v", attempt, d1, c.backoffMax)
		}
		if d1 < c.backoffBase/2 {
			t.Fatalf("attempt %d: backoff %v below base/2", attempt, d1)
		}
	}
	if c.backoffDelay("r-1", 3) == c.backoffDelay("r-2", 3) {
		t.Fatal("jitter does not vary with request ID")
	}
}

func readJSON(r *http.Request, v any) {
	defer r.Body.Close()
	json.NewDecoder(r.Body).Decode(v)
}
