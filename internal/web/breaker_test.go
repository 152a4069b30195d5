package web

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// tick is a manually advanced clock for deterministic breaker tests.
type tick struct{ now time.Time }

func newTick() *tick { return &tick{now: time.Unix(1000, 0)} }

func (c *tick) Now() time.Time          { return c.now }
func (c *tick) Advance(d time.Duration) { c.now = c.now.Add(d) }
func (c *tick) Clock() func() time.Time { return c.Now }

// switchFetcher fails while down is set and serves otherwise, counting
// the fetches that actually reach it.
type switchFetcher struct {
	down  atomic.Bool
	calls atomic.Int64
}

func (s *switchFetcher) Fetch(req *Request) (*Response, error) {
	s.calls.Add(1)
	if s.down.Load() {
		return nil, errors.New("connection refused")
	}
	return HTML(req.URL, "<html><body>ok</body></html>"), nil
}

// TestBreakerTransitions walks one host's circuit through the full
// closed → open → half-open → closed cycle, stepping the injected clock
// between phases so every transition is deterministic.
func TestBreakerTransitions(t *testing.T) {
	inner := &switchFetcher{}
	clk := newTick()
	stats := &Stats{}
	br := NewBreaker(inner, 0.5, clk.Clock(), stats)
	const url = "http://h/x"

	// Closed: healthy traffic flows and keeps the circuit closed.
	for i := 0; i < breakerWindow+2; i++ {
		if _, err := br.Fetch(NewGet(context.Background(), url)); err != nil {
			t.Fatalf("healthy fetch %d: %v", i, err)
		}
	}
	if st := br.State("h"); st != BreakerClosed {
		t.Fatalf("state after healthy traffic = %v", st)
	}

	// The window holds the 8 most recent outcomes (all successes). Four
	// failures push the ratio to 4/8 = 0.5 ≥ threshold: the circuit
	// opens on exactly the fourth failure.
	inner.down.Store(true)
	for i := 0; i < breakerWindow/2; i++ {
		if st := br.State("h"); st != BreakerClosed {
			t.Fatalf("state before failure %d = %v, want closed", i, st)
		}
		if _, err := br.Fetch(NewGet(context.Background(), url)); err == nil {
			t.Fatalf("failing fetch %d unexpectedly succeeded", i)
		}
	}
	if st := br.State("h"); st != BreakerOpen {
		t.Fatalf("state after failures = %v, want open", st)
	}
	if br.Opens("h") != 1 {
		t.Fatalf("opens = %d", br.Opens("h"))
	}

	// Open: fetches are rejected without touching the network, with an
	// Outage-classified, host-attributed circuit-open error.
	before := inner.calls.Load()
	_, err := br.Fetch(NewGet(context.Background(), url))
	if err == nil {
		t.Fatal("open circuit let a fetch through")
	}
	if !errors.Is(err, ErrCircuitOpen) || !IsOutage(err) {
		t.Fatalf("rejection not taxonomized: %v", err)
	}
	if FailingHost(err) != "h" {
		t.Fatalf("rejection host = %q", FailingHost(err))
	}
	if inner.calls.Load() != before {
		t.Fatal("rejected fetch reached the inner fetcher")
	}
	if stats.Get(BreakerRejects) != 1 {
		t.Fatalf("breaker rejects = %d", stats.Get(BreakerRejects))
	}

	// Half-open after cooldown: the site is still down, so the probe
	// fails and the circuit re-opens for another cooldown.
	clk.Advance(breakerCooldown)
	if st := br.State("h"); st != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", st)
	}
	if _, err := br.Fetch(NewGet(context.Background(), url)); err == nil {
		t.Fatal("failed probe unexpectedly succeeded")
	}
	if st := br.State("h"); st != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", st)
	}
	if br.Opens("h") != 2 {
		t.Fatalf("opens after failed probe = %d", br.Opens("h"))
	}

	// Second cooldown; the site has recovered, so the probe succeeds and
	// the circuit closes.
	clk.Advance(breakerCooldown)
	inner.down.Store(false)
	if _, err := br.Fetch(NewGet(context.Background(), url)); err != nil {
		t.Fatalf("recovering probe failed: %v", err)
	}
	if st := br.State("h"); st != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", st)
	}
	// And traffic flows again.
	if _, err := br.Fetch(NewGet(context.Background(), url)); err != nil {
		t.Fatalf("post-recovery fetch failed: %v", err)
	}
}

// TestBreakerPerHostIsolation: one dead host must not open another
// host's circuit.
func TestBreakerPerHostIsolation(t *testing.T) {
	clk := newTick()
	inner := FetcherFunc(func(req *Request) (*Response, error) {
		if hostOf(req.URL) == "dead" {
			return nil, errors.New("connection refused")
		}
		return HTML(req.URL, "<html><body>ok</body></html>"), nil
	})
	br := NewBreaker(inner, 0.5, clk.Clock(), nil)
	for i := 0; i < breakerWindow; i++ {
		br.Fetch(NewGet(context.Background(), "http://dead/x"))
		if _, err := br.Fetch(NewGet(context.Background(), "http://alive/x")); err != nil {
			t.Fatalf("alive host affected: %v", err)
		}
	}
	if st := br.State("dead"); st != BreakerOpen {
		t.Fatalf("dead host state = %v", st)
	}
	if st := br.State("alive"); st != BreakerClosed {
		t.Fatalf("alive host state = %v", st)
	}
}

// TestBreakerHalfOpenSingleProbe: while one probe is in flight, other
// fetches of the same host are still rejected.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	clk := newTick()
	release := make(chan struct{})
	entered := make(chan struct{})
	inner := FetcherFunc(func(req *Request) (*Response, error) {
		close(entered)
		<-release
		return HTML(req.URL, "<html><body>ok</body></html>"), nil
	})
	br := NewBreaker(inner, 0.5, clk.Clock(), nil)
	// Trip the host's circuit directly (white-box): the transition
	// mechanics are covered by TestBreakerTransitions.
	br.host("h").trip(clk.Now())

	clk.Advance(breakerCooldown)
	done := make(chan error, 1)
	go func() {
		_, err := br.Fetch(NewGet(context.Background(), "http://h/probe"))
		done <- err
	}()
	<-entered // the probe holds the half-open slot
	if _, err := br.Fetch(NewGet(context.Background(), "http://h/second")); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("second fetch during probe: %v", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("probe failed: %v", err)
	}
	if st := br.State("h"); st != BreakerClosed {
		t.Fatalf("state after probe = %v", st)
	}
}

// TestBreakerIgnoresCancellation: a cancelled fetch is the caller's
// doing, not the site's — it must not push the circuit toward open.
func TestBreakerIgnoresCancellation(t *testing.T) {
	clk := newTick()
	inner := FetcherFunc(func(req *Request) (*Response, error) {
		return nil, context.Canceled
	})
	br := NewBreaker(inner, 0.5, clk.Clock(), nil)
	for i := 0; i < 2*breakerWindow; i++ {
		br.Fetch(NewGet(context.Background(), "http://h/x"))
	}
	if st := br.State("h"); st != BreakerClosed {
		t.Fatalf("cancellations opened the circuit: %v", st)
	}
}

// TestBreakerCancelledProbeIsNoVerdict: a half-open probe whose caller
// gives up says nothing about the site. The circuit must not close on it;
// it stays half-open and the next fetch probes.
func TestBreakerCancelledProbeIsNoVerdict(t *testing.T) {
	inner := &switchFetcher{}
	inner.down.Store(true)
	clk := newTick()
	br := NewBreaker(FetcherFunc(func(req *Request) (*Response, error) {
		if err := req.Context().Err(); err != nil {
			return nil, err
		}
		return inner.Fetch(req)
	}), 0.5, clk.Clock(), nil)
	const url = "http://h/x"
	for i := 0; i < breakerWindow; i++ {
		br.Fetch(NewGet(context.Background(), url))
	}
	if st := br.State("h"); st != BreakerOpen {
		t.Fatalf("state after failures = %v, want open", st)
	}

	clk.Advance(breakerCooldown)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := br.Fetch(NewGet(ctx, url)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled probe: %v", err)
	}
	if st := br.State("h"); st != BreakerHalfOpen {
		t.Fatalf("state after cancelled probe = %v, want half-open", st)
	}

	// The host still refuses: the next fetch is the probe, reaches the
	// site, fails and re-opens the circuit.
	before := inner.calls.Load()
	if _, err := br.Fetch(NewGet(context.Background(), url)); err == nil || errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("second probe: %v, want the site's failure", err)
	}
	if inner.calls.Load() != before+1 {
		t.Fatal("the fetch after a cancelled probe did not probe")
	}
	if st := br.State("h"); st != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", st)
	}
	if br.Opens("h") != 2 {
		t.Fatalf("opens = %d, want 2", br.Opens("h"))
	}
}

// TestBreakerLateFetchDoesNotDecideHalfOpen: a fetch admitted while the
// circuit was closed that answers after it went half-open is not the
// probe. Its late success must not close the circuit; the probe's failure
// re-opens it.
func TestBreakerLateFetchDoesNotDecideHalfOpen(t *testing.T) {
	clk := newTick()
	var down atomic.Bool
	lateIn, lateOut := make(chan struct{}), make(chan struct{})
	probeIn, probeOut := make(chan struct{}), make(chan struct{})
	br := NewBreaker(FetcherFunc(func(req *Request) (*Response, error) {
		switch req.URL {
		case "http://h/late":
			close(lateIn)
			<-lateOut
			return HTML(req.URL, "<html><body>ok</body></html>"), nil
		case "http://h/probe":
			close(probeIn)
			<-probeOut
		}
		if down.Load() {
			return nil, errors.New("connection refused")
		}
		return HTML(req.URL, "<html><body>ok</body></html>"), nil
	}), 0.5, clk.Clock(), nil)

	lateDone := make(chan error, 1)
	go func() {
		_, err := br.Fetch(NewGet(context.Background(), "http://h/late"))
		lateDone <- err
	}()
	<-lateIn // admitted while closed, still in flight

	down.Store(true)
	for i := 0; i < breakerWindow; i++ {
		br.Fetch(NewGet(context.Background(), "http://h/x"))
	}
	if st := br.State("h"); st != BreakerOpen {
		t.Fatalf("state after failures = %v, want open", st)
	}

	clk.Advance(breakerCooldown)
	probeDone := make(chan error, 1)
	go func() {
		_, err := br.Fetch(NewGet(context.Background(), "http://h/probe"))
		probeDone <- err
	}()
	<-probeIn // the probe holds the half-open slot

	close(lateOut)
	if err := <-lateDone; err != nil {
		t.Fatalf("late fetch: %v", err)
	}
	if st := br.State("h"); st != BreakerHalfOpen {
		t.Fatalf("state after the late success = %v, want half-open", st)
	}

	close(probeOut)
	if err := <-probeDone; err == nil {
		t.Fatal("probe of a refusing host succeeded")
	}
	if st := br.State("h"); st != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", st)
	}
	if br.Opens("h") != 2 {
		t.Fatalf("opens = %d, want 2", br.Opens("h"))
	}
}
