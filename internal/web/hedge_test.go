package web

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// slowFirstAttempt answers the first attempt per request key slowly and
// later attempts instantly — the canonical hedge-win scenario.
type slowFirstAttempt struct {
	attempts atomic.Int64
	delay    time.Duration
	failSlow error // when non-nil, the slow attempt fails with this
	failFast error // when non-nil, the fast attempt fails with this
}

func (s *slowFirstAttempt) Fetch(req *Request) (*Response, error) {
	if s.attempts.Add(1) == 1 {
		time.Sleep(s.delay)
		if s.failSlow != nil {
			return nil, s.failSlow
		}
	} else if s.failFast != nil {
		return nil, s.failFast
	}
	return HTML(req.URL, "<html><body>"+req.URL+"</body></html>"), nil
}

func TestHedgeSecondAttemptWins(t *testing.T) {
	inner := &slowFirstAttempt{delay: 200 * time.Millisecond}
	stats := &Stats{}
	f := WithHedge(inner, Policy{HedgeAfter: 5 * time.Millisecond}, stats)

	start := time.Now()
	resp, err := f.Fetch(NewGet("http://slow.example/p"))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= inner.delay {
		t.Errorf("hedged fetch took %v, the full slow-attempt latency", elapsed)
	}
	if string(resp.Body) == "" {
		t.Fatal("empty response")
	}
	if stats.Hedges() != 1 {
		t.Errorf("hedges = %d, want 1", stats.Hedges())
	}
	if stats.HedgeWins() != 1 {
		t.Errorf("hedge wins = %d, want 1", stats.HedgeWins())
	}
}

func TestHedgeNotIssuedWhenPrimaryFast(t *testing.T) {
	var calls atomic.Int64
	inner := FetcherFunc(func(req *Request) (*Response, error) {
		calls.Add(1)
		return HTML(req.URL, "<html></html>"), nil
	})
	stats := &Stats{}
	f := WithHedge(inner, Policy{HedgeAfter: 50 * time.Millisecond}, stats)
	if _, err := f.Fetch(NewGet("http://fast.example/p")); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Errorf("inner fetched %d times, want 1", calls.Load())
	}
	if stats.Hedges() != 0 {
		t.Errorf("hedges = %d, want 0", stats.Hedges())
	}
}

// TestHedgeBothFailReturnsPrimaryError pins deterministic loser
// selection: when both attempts fail, the PRIMARY attempt's error
// surfaces even though the hedge attempt failed first — so host
// attribution and degradation reports don't depend on the race.
func TestHedgeBothFailReturnsPrimaryError(t *testing.T) {
	errPrimary := errors.New("primary transport failure")
	errHedge := errors.New("hedge transport failure")
	inner := &slowFirstAttempt{delay: 30 * time.Millisecond, failSlow: errPrimary, failFast: errHedge}
	f := WithHedge(inner, Policy{HedgeAfter: 5 * time.Millisecond}, &Stats{})
	_, err := f.Fetch(NewGet("http://down.example/p"))
	if !errors.Is(err, errPrimary) {
		t.Fatalf("got %v, want the primary attempt's error", err)
	}
	if errors.Is(err, errHedge) {
		t.Fatalf("hedge attempt's error leaked: %v", err)
	}
}

func TestHedgeHonorsCancellation(t *testing.T) {
	// Both attempts hang until the test ends, so only cancellation can
	// unblock the caller.
	gate := make(chan struct{})
	defer close(gate)
	inner := FetcherFunc(func(req *Request) (*Response, error) {
		<-gate
		return HTML(req.URL, "<html></html>"), nil
	})
	f := WithHedge(inner, Policy{HedgeAfter: 5 * time.Millisecond}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := f.Fetch(NewGet("http://hung.example/p").WithContext(ctx))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the hedge fire, then give up
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(500 * time.Millisecond):
		t.Fatal("cancelled hedged fetch did not return")
	}
}

func TestHedgeDisabled(t *testing.T) {
	inner := newCountingInner(0)
	if f := WithHedge(inner, Policy{}, nil); f != Fetcher(inner) {
		t.Error("zero delay should return inner unwrapped")
	}
}

// slowEveryAttempt answers every attempt after the same delay, so each
// fetch through the hedge middleware is hedge-eligible.
type slowEveryAttempt struct {
	attempts atomic.Int64
	delay    time.Duration
}

func (s *slowEveryAttempt) Fetch(req *Request) (*Response, error) {
	s.attempts.Add(1)
	time.Sleep(s.delay)
	return HTML(req.URL, "<html><body>"+req.URL+"</body></html>"), nil
}

// TestHedgeBudgetCapsDuplicates: with a hedge budget of 1, only the
// query's first slow fetch hedges; later slow fetches wait for their
// primary attempt and are counted suppressed — identical answers, bounded
// duplicate load.
func TestHedgeBudgetCapsDuplicates(t *testing.T) {
	inner := &slowEveryAttempt{delay: 30 * time.Millisecond}
	stats := &Stats{}
	f := WithHedge(inner, Policy{HedgeAfter: 5 * time.Millisecond, HedgeBudget: 1}, stats)
	q := &Query{}
	ctx := WithQuery(context.Background(), q)

	for i := 0; i < 3; i++ {
		req := NewGet("http://slow.example/p" + string(rune('a'+i))).WithContext(ctx)
		if _, err := f.Fetch(req); err != nil {
			t.Fatal(err)
		}
	}
	stats.Add(&q.Stats) // the query's bill, folded as core does when it ends
	if got := stats.Hedges(); got != 1 {
		t.Errorf("hedges = %d, want 1 (budget)", got)
	}
	if got := stats.HedgesSuppressed(); got != 2 {
		t.Errorf("hedges suppressed = %d, want 2", got)
	}
	// 3 primaries + 1 hedged duplicate.
	if got := inner.attempts.Load(); got != 4 {
		t.Errorf("inner attempts = %d, want 4", got)
	}
}

// TestHedgeNoBudgetIsUnlimited: without a hedge budget every eligible
// fetch may hedge.
func TestHedgeNoBudgetIsUnlimited(t *testing.T) {
	inner := &slowEveryAttempt{delay: 30 * time.Millisecond}
	stats := &Stats{}
	f := WithHedge(inner, Policy{HedgeAfter: 5 * time.Millisecond}, stats)
	for i := 0; i < 2; i++ {
		if _, err := f.Fetch(NewGet("http://slow.example/q" + string(rune('a'+i)))); err != nil {
			t.Fatal(err)
		}
	}
	if got := stats.Hedges(); got != 2 {
		t.Errorf("hedges = %d, want 2", got)
	}
	if got := stats.HedgesSuppressed(); got != 0 {
		t.Errorf("hedges suppressed = %d, want 0", got)
	}
}
