package client

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webbase/internal/wire"
)

// The failover surface, unit-scale: endpoint rotation and benching,
// failover on 5xx, restart-from-zero after a refused cross-replica
// resume, Retry-After honored under the backoff ceiling, and the stall
// watchdog with its keepalive antidote. The multi-process version of the
// same story is internal/loadgen's fleet harness.

// TestEndpointSetRotation drives the bench bookkeeping directly: config
// order is preference order, failures bench with a doubling cooldown,
// success resets, and a fully benched set degrades to soonest-parole.
func TestEndpointSetRotation(t *testing.T) {
	clock := time.Unix(0, 0)
	now := func() time.Time { return clock }
	eps := newEndpointSet([]string{"http://a", "http://b", "http://c"},
		10*time.Millisecond, 80*time.Millisecond, now)

	if got := eps.pick(); got != "http://a" {
		t.Fatalf("healthy pick = %s, want the preferred endpoint", got)
	}
	eps.fail("http://a")
	if got := eps.pick(); got != "http://b" {
		t.Fatalf("pick after benching a = %s, want b", got)
	}
	eps.fail("http://b")
	if got := eps.pick(); got != "http://c" {
		t.Fatalf("pick after benching a,b = %s, want c", got)
	}
	// All benched: the soonest parole wins rather than nothing.
	eps.fail("http://c")
	eps.fail("http://c") // c's cooldown doubles past a's and b's
	if got := eps.pick(); got != "http://a" {
		t.Fatalf("all-benched pick = %s, want the soonest parole (a)", got)
	}
	// Past a's cooldown the bench expires on its own.
	clock = clock.Add(15 * time.Millisecond)
	if got := eps.pick(); got != "http://a" {
		t.Fatalf("post-cooldown pick = %s, want a", got)
	}
	// Success wipes the failure memory; a is fully preferred again.
	eps.ok("http://a")
	eps.fail("http://b")
	clock = clock.Add(time.Second)
	if got := eps.pick(); got != "http://a" {
		t.Fatalf("pick after reset = %s, want a", got)
	}
}

// TestFailoverOn5xx: with a replica set, a 500 is no longer terminal —
// the client benches the failing replica and completes on the next one.
// (Single-endpoint 500 stays fail-fast: TestErrorEnvelopeTable.)
func TestFailoverOn5xx(t *testing.T) {
	var sick atomic.Int64
	bad := httptest.NewServer(envelopeHandler("internal", 500, &sick))
	defer bad.Close()
	good := httptest.NewServer(scriptedStream(
		scriptedMeta,
		`{"event":"tuples","seq":1,"index":0,"object":["cars"],"count":1,"tuples":[["jaguar"]]}`,
		`{"event":"trailer","seq":2,"tuples":1,"objects":1,"stats":{}}`,
	))
	defer good.Close()

	c, err := New(Config{Endpoints: []string{bad.URL, good.URL}, MaxAttempts: 3, sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Query(context.Background(), "SELECT Make")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var tuples int
	for st.Next() {
		tuples += len(st.Delivery().Tuples)
	}
	if st.Err() != nil {
		t.Fatal(st.Err())
	}
	if tuples != 1 || st.Failovers() != 1 || st.Endpoint() != good.URL {
		t.Fatalf("tuples=%d failovers=%d endpoint=%s, want 1/1/%s",
			tuples, st.Failovers(), st.Endpoint(), good.URL)
	}
	if sick.Load() != 1 {
		t.Fatalf("failing replica saw %d requests, want 1 — it should be benched after one failure", sick.Load())
	}
}

// TestFailoverRestartsAfterRefusedResume: replica A dies mid-stream; the
// resume lands on replica B, whose web view differs, so B refuses with
// 409 resume-inconsistent. The client must not fail — and must not splice
// — it starts the stream over from seq zero on B and surfaces the restart
// so consumers can drop the pre-restart prefix.
func TestFailoverRestartsAfterRefusedResume(t *testing.T) {
	// Replica A: meta + one tuple, then the connection dies.
	a := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		scriptedStream(
			scriptedMeta,
			`{"event":"tuples","seq":1,"index":0,"object":["cars"],"count":1,"tuples":[["stale"]]}`,
		)(w, r)
		// Returning without a trailer closes the body: the client reads EOF
		// mid-stream, a transport fault.
	}))
	defer a.Close()

	// Replica B: refuses any resume, serves fresh queries in full.
	var resumesRefused, fresh atomic.Int64
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var qr wire.QueryRequest
		readJSON(r, &qr)
		if qr.LastEventIndex != nil {
			resumesRefused.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(409)
			fmt.Fprintln(w, `{"error":{"code":"resume-inconsistent","status":409,"message":"web view changed","request_id":"r-2"}}`)
			return
		}
		fresh.Add(1)
		scriptedStream(
			`{"event":"meta","seq":0,"request_id":"r-2","query":"SELECT Make","schema":["Make"],"resume_token":"tok-2"}`,
			`{"event":"tuples","seq":1,"index":0,"object":["cars"],"count":1,"tuples":[["jaguar"]]}`,
			`{"event":"tuples","seq":2,"index":1,"object":["dealers"],"count":1,"tuples":[["saab"]]}`,
			`{"event":"trailer","seq":3,"tuples":2,"objects":2,"stats":{}}`,
		)(w, r)
	}))
	defer b.Close()

	c, err := New(Config{Endpoints: []string{a.URL, b.URL}, MaxAttempts: 5, sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Query(context.Background(), "SELECT Make")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Restart-aware drain: a Restarts() advance voids the prefix.
	var tuples []string
	restarts := 0
	for st.Next() {
		if r := st.Restarts(); r > restarts {
			restarts = r
			tuples = nil
		}
		for _, tp := range st.Delivery().Tuples {
			tuples = append(tuples, fmt.Sprint(tp))
		}
	}
	if st.Err() != nil {
		t.Fatal(st.Err())
	}
	if !st.Restarted() || st.Restarts() != 1 {
		t.Fatalf("restarts = %d, want 1 — the refused resume must restart, not fail", st.Restarts())
	}
	if len(tuples) != 2 {
		t.Fatalf("post-restart answer = %v, want the full 2-tuple answer from zero", tuples)
	}
	if st.Failovers() != 1 || st.Endpoint() != b.URL {
		t.Fatalf("failovers=%d endpoint=%s, want 1/%s", st.Failovers(), st.Endpoint(), b.URL)
	}
	if resumesRefused.Load() != 1 || fresh.Load() != 1 {
		t.Fatalf("replica B saw %d refused resumes and %d fresh queries, want 1/1",
			resumesRefused.Load(), fresh.Load())
	}
	if st.Trailer() == nil || st.Trailer().Tuples != 2 {
		t.Fatalf("trailer = %+v", st.Trailer())
	}
}

// TestRetryAfterHonored: a 429 shedded envelope carrying Retry-After
// stretches the reconnect delay to the server's ask — but never past the
// client's own backoff ceiling.
func TestRetryAfterHonored(t *testing.T) {
	cases := []struct {
		name       string
		retryAfter string
		backoffMax time.Duration
		wantSleep  time.Duration
	}{
		{"honored", "1", 10 * time.Second, 1 * time.Second},
		{"capped", "60", 2 * time.Second, 2 * time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var hits atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits.Add(1)
				w.Header().Set("Content-Type", "application/json")
				w.Header().Set("Retry-After", tc.retryAfter)
				w.WriteHeader(429)
				fmt.Fprintln(w, `{"error":{"code":"shedded","status":429,"message":"overload","request_id":"r-1"}}`)
			}))
			defer ts.Close()

			var mu sync.Mutex
			var sleeps []time.Duration
			record := func(_ context.Context, d time.Duration) error {
				mu.Lock()
				sleeps = append(sleeps, d)
				mu.Unlock()
				return nil
			}
			c, err := New(Config{
				BaseURL:     ts.URL,
				MaxAttempts: 3,
				BackoffBase: time.Millisecond,
				BackoffMax:  tc.backoffMax,
				sleep:       record,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Query(context.Background(), "SELECT Make"); err == nil {
				t.Fatal("Query succeeded against a permanently shedding server")
			}
			mu.Lock()
			defer mu.Unlock()
			if len(sleeps) != 2 { // attempts-1 reconnect waits
				t.Fatalf("recorded %d sleeps, want 2", len(sleeps))
			}
			for i, d := range sleeps {
				if d != tc.wantSleep {
					t.Fatalf("sleep %d = %v, want %v (Retry-After %s under a %v ceiling)",
						i, d, tc.wantSleep, tc.retryAfter, tc.backoffMax)
				}
			}
		})
	}
}

// TestStallWatchdogKillsSilentStream: a stream that goes silent after a
// delivery is dead to a StallTimeout client — the watchdog severs it and
// the resume completes the answer on the next attempt.
func TestStallWatchdogKillsSilentStream(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			scriptedStream(
				scriptedMeta,
				`{"event":"tuples","seq":1,"index":0,"object":["cars"],"count":1,"tuples":[["jaguar"]]}`,
			)(w, r)
			<-r.Context().Done() // stall: no more events, connection held open
			return
		}
		scriptedStream(
			`{"event":"tuples","seq":2,"index":1,"object":["dealers"],"count":1,"tuples":[["saab"]]}`,
			`{"event":"trailer","seq":3,"tuples":2,"objects":2,"stats":{}}`,
		)(w, r)
	}))
	defer ts.Close()

	c, err := New(Config{BaseURL: ts.URL, MaxAttempts: 3, StallTimeout: 50 * time.Millisecond, sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Query(context.Background(), "SELECT Make")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var tuples int
	for st.Next() {
		tuples += len(st.Delivery().Tuples)
	}
	if st.Err() != nil {
		t.Fatal(st.Err())
	}
	if tuples != 2 || st.Attempts() != 2 {
		t.Fatalf("tuples=%d attempts=%d, want 2/2 — the watchdog must kill the stall and resume", tuples, st.Attempts())
	}
}

// TestKeepalivesDisarmStallWatchdog: a stream that is idle far past
// StallTimeout but keeps sending keepalives is alive, not stalled — the
// watchdog re-arms on every event, keepalives included, and the stream
// completes on the first attempt.
func TestKeepalivesDisarmStallWatchdog(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		f, _ := w.(http.Flusher)
		emit := func(line string) {
			fmt.Fprintln(w, line)
			if f != nil {
				f.Flush()
			}
		}
		emit(scriptedMeta)
		// 300ms of idleness — three times the stall timeout — bridged only
		// by keepalives.
		for i := 0; i < 15; i++ {
			time.Sleep(20 * time.Millisecond)
			emit(`{"event":"keepalive"}`)
		}
		emit(`{"event":"tuples","seq":1,"index":0,"object":["cars"],"count":1,"tuples":[["jaguar"]]}`)
		emit(`{"event":"trailer","seq":2,"tuples":1,"objects":1,"stats":{}}`)
	}))
	defer ts.Close()

	c, err := New(Config{BaseURL: ts.URL, MaxAttempts: 1, StallTimeout: 100 * time.Millisecond, sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Query(context.Background(), "SELECT Make")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var tuples int
	for st.Next() {
		tuples += len(st.Delivery().Tuples)
	}
	if st.Err() != nil {
		t.Fatalf("a keepalive-bridged idle stream was killed: %v", st.Err())
	}
	if tuples != 1 || st.Attempts() != 1 {
		t.Fatalf("tuples=%d attempts=%d, want 1/1", tuples, st.Attempts())
	}
	if st.Keepalives() == 0 {
		t.Fatal("client consumed no keepalives from a keepalive-bridged stream")
	}
}
