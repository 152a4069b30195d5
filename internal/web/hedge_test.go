package web

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// slowFirstAttempt holds the first attempt until the test closes release,
// and answers later attempts at once — the canonical hedge-win scenario.
// hedged closes when the second attempt starts: the hedge has fired. No
// attempt waits on a clock, so the hedge's timer is the only one a test
// waits for.
type slowFirstAttempt struct {
	attempts atomic.Int64
	release  chan struct{} // closed by the test: the first attempt may answer
	hedged   chan struct{} // closed by the second attempt
	answered atomic.Bool   // the first attempt has answered
	failSlow error         // when non-nil, the slow attempt fails with this
	failFast error         // when non-nil, the fast attempt fails with this
}

func newSlowFirstAttempt() *slowFirstAttempt {
	return &slowFirstAttempt{release: make(chan struct{}), hedged: make(chan struct{})}
}

func (s *slowFirstAttempt) Fetch(req *Request) (*Response, error) {
	switch s.attempts.Add(1) {
	case 1:
		<-s.release
		defer s.answered.Store(true)
		if s.failSlow != nil {
			return nil, s.failSlow
		}
	case 2:
		close(s.hedged)
		fallthrough
	default:
		if s.failFast != nil {
			return nil, s.failFast
		}
	}
	return HTML(req.URL, "<html><body>"+req.URL+"</body></html>"), nil
}

// releaseOnHedge releases the slow attempt once the hedge has fired.
func (s *slowFirstAttempt) releaseOnHedge() {
	go func() {
		<-s.hedged
		close(s.release)
	}()
}

func TestHedgeSecondAttemptWins(t *testing.T) {
	inner := newSlowFirstAttempt()
	defer close(inner.release)
	stats := &Stats{}
	f := WithHedge(inner, Policy{HedgeAfter: 5 * time.Millisecond}, stats)

	resp, err := f.Fetch(NewGet(context.Background(), "http://slow.example/p"))
	if err != nil {
		t.Fatal(err)
	}
	if inner.answered.Load() {
		t.Error("hedged fetch waited for the slow attempt")
	}
	if string(resp.Body) == "" {
		t.Fatal("empty response")
	}
	if stats.Get(Hedges) != 1 {
		t.Errorf("hedges = %d, want 1", stats.Get(Hedges))
	}
	if stats.Get(HedgeWins) != 1 {
		t.Errorf("hedge wins = %d, want 1", stats.Get(HedgeWins))
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
	if _, err := f.Fetch(NewGet(context.Background(), "http://fast.example/p")); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Errorf("inner fetched %d times, want 1", calls.Load())
	}
	if stats.Get(Hedges) != 0 {
		t.Errorf("hedges = %d, want 0", stats.Get(Hedges))
	}
}

// TestHedgeBothFailReturnsPrimaryError pins deterministic loser
// selection: when both attempts fail, the PRIMARY attempt's error
// surfaces even though the hedge attempt failed first (it fails at once,
// the primary only once the hedge has fired) — so host attribution and
// degradation reports don't depend on the race.
func TestHedgeBothFailReturnsPrimaryError(t *testing.T) {
	errPrimary := errors.New("primary transport failure")
	errHedge := errors.New("hedge transport failure")
	inner := newSlowFirstAttempt()
	inner.failSlow, inner.failFast = errPrimary, errHedge
	inner.releaseOnHedge()
	f := WithHedge(inner, Policy{HedgeAfter: 5 * time.Millisecond}, &Stats{})
	_, err := f.Fetch(NewGet(context.Background(), "http://down.example/p"))
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
	var attempts atomic.Int64
	hedged := make(chan struct{})
	inner := FetcherFunc(func(req *Request) (*Response, error) {
		if attempts.Add(1) == 2 {
			close(hedged)
		}
		<-gate
		return HTML(req.URL, "<html></html>"), nil
	})
	f := WithHedge(inner, Policy{HedgeAfter: 5 * time.Millisecond}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := f.Fetch(NewGet(ctx, "http://hung.example/p"))
		done <- err
	}()
	<-hedged // let the hedge fire, then give up
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

// slowEveryAttempt holds every attempt of a fetch until the test releases
// the fetch's URL, so each fetch through the hedge middleware is
// hedge-eligible.
type slowEveryAttempt struct {
	attempts atomic.Int64
	mu       sync.Mutex
	gates    map[string]chan struct{} // by URL, closed on release
}

func (s *slowEveryAttempt) gate(url string) chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gates == nil {
		s.gates = map[string]chan struct{}{}
	}
	g, ok := s.gates[url]
	if !ok {
		g = make(chan struct{})
		s.gates[url] = g
	}
	return g
}

func (s *slowEveryAttempt) Fetch(req *Request) (*Response, error) {
	s.attempts.Add(1)
	<-s.gate(req.URL)
	return HTML(req.URL, "<html><body>"+req.URL+"</body></html>"), nil
}

// fetchOnceFired fetches url through f, holding its attempts until fired
// reports that the hedge has fired (or was refused), and then releasing
// them. fired is polled, yielding: the hedge's own timer is the only clock
// the fetch waits on.
func (s *slowEveryAttempt) fetchOnceFired(t *testing.T, ctx context.Context, f Fetcher, url string, fired func() bool) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := f.Fetch(NewGet(ctx, url))
		done <- err
	}()
	for !fired() {
		runtime.Gosched()
	}
	close(s.gate(url))
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestHedgeBudgetCapsDuplicates: with a hedge budget of 1, only the
// query's first slow fetch hedges; later slow fetches wait for their
// primary attempt and are counted suppressed — identical answers, bounded
// duplicate load.
func TestHedgeBudgetCapsDuplicates(t *testing.T) {
	inner := &slowEveryAttempt{}
	stats := &Stats{}
	f := WithHedge(inner, Policy{HedgeAfter: 5 * time.Millisecond, HedgeBudget: 1}, stats)
	q := &Query{}
	ctx := WithQuery(context.Background(), q)

	// The first fetch is released once its hedged attempt has started;
	// each later one once its hedge has been refused.
	inner.fetchOnceFired(t, ctx, f, "http://slow.example/pa", func() bool { return inner.attempts.Load() == 2 })
	for i := 1; i < 3; i++ {
		suppressed := int64(i)
		inner.fetchOnceFired(t, ctx, f, "http://slow.example/p"+string(rune('a'+i)),
			func() bool { return q.Stats.Get(HedgesSuppressed) == suppressed })
	}
	stats.Add(&q.Stats) // the query's bill, folded as core does when it ends
	if got := stats.Get(Hedges); got != 1 {
		t.Errorf("hedges = %d, want 1 (budget)", got)
	}
	if got := stats.Get(HedgesSuppressed); got != 2 {
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
	inner := &slowEveryAttempt{}
	stats := &Stats{}
	f := WithHedge(inner, Policy{HedgeAfter: 5 * time.Millisecond}, stats)
	for i := 0; i < 2; i++ {
		hedged := int64(2 * (i + 1)) // a primary and a hedged attempt a fetch
		inner.fetchOnceFired(t, context.Background(), f, "http://slow.example/q"+string(rune('a'+i)),
			func() bool { return inner.attempts.Load() == hedged })
	}
	if got := stats.Get(Hedges); got != 2 {
		t.Errorf("hedges = %d, want 2", got)
	}
	if got := stats.Get(HedgesSuppressed); got != 0 {
		t.Errorf("hedges suppressed = %d, want 0", got)
	}
}

// TestHedgeLoserKeepsItsRequest: the caller may reuse its request once
// Fetch has returned (Fetcher), while the losing attempt runs on. The
// primary attempt here reads its request only after the hedge has won and
// the caller has overwritten its request with another, and still reads its
// own URL and key. Without the hedge's copy it reads the caller's new
// request.
func TestHedgeLoserKeepsItsRequest(t *testing.T) {
	var attempts atomic.Int64
	release := make(chan struct{})
	type read struct{ url, key string }
	primary := make(chan read, 1)
	inner := FetcherFunc(func(req *Request) (*Response, error) {
		if attempts.Add(1) == 1 {
			<-release
			primary <- read{req.URL, req.Key()}
		}
		return HTML("http://h/p", "<html></html>"), nil
	})
	f := WithHedge(inner, Policy{HedgeAfter: time.Millisecond}, &Stats{})
	req := NewSubmit(context.Background(), "http://h/p", "GET", []Field{{Name: "q", Value: "1"}})
	want := read{req.URL, req.Key()}
	if _, err := f.Fetch(req); err != nil {
		t.Fatal(err)
	}
	*req = *NewGet(context.Background(), "http://h/other")
	close(release)
	if got := <-primary; got != want {
		t.Errorf("the losing attempt read %+v, want its own %+v", got, want)
	}
}
