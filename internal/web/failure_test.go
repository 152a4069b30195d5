package web

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func okFetcher() Fetcher {
	return FetcherFunc(func(req *Request) (*Response, error) {
		return HTML(req.URL, "<html><body>ok</body></html>"), nil
	})
}

func TestFlakyInjectsDeterministically(t *testing.T) {
	f := &Flaky{Inner: okFetcher(), FailEvery: 3}
	failures := 0
	for i := 0; i < 300; i++ {
		if _, err := f.Fetch(NewGet("http://h/x")); err != nil {
			if !errors.Is(err, ErrSimulatedOutage) {
				t.Fatalf("unexpected error type: %v", err)
			}
			failures++
		}
	}
	if failures == 0 || failures == 300 {
		t.Fatalf("failures = %d, want a deterministic fraction", failures)
	}
	if f.Attempts() != 300 {
		t.Errorf("attempts = %d", f.Attempts())
	}
	// Same sequence → same failures.
	g := &Flaky{Inner: okFetcher(), FailEvery: 3}
	failures2 := 0
	for i := 0; i < 300; i++ {
		if _, err := g.Fetch(NewGet("http://h/x")); err != nil {
			failures2++
		}
	}
	if failures != failures2 {
		t.Errorf("not deterministic: %d vs %d", failures, failures2)
	}
}

// TestFlakyScheduleIndependent is the regression test for the rehash of
// Flaky onto (URL, per-URL attempt): whether the n-th attempt at a given
// URL fails must not depend on what other requests are in flight or in
// what order goroutines interleave. The old implementation hashed a global
// sequence number, so adding a concurrent fetcher of URL B silently
// changed which attempts at URL A failed.
func TestFlakyScheduleIndependent(t *testing.T) {
	urls := []string{"http://a/1", "http://b/2", "http://c/3", "http://d/4"}
	const attempts = 40

	// outcomes records, per URL, the failure pattern of its attempt sequence.
	outcomes := func(run func(f *Flaky, fetch func(url string))) map[string]string {
		f := &Flaky{Inner: okFetcher(), FailEvery: 3}
		var mu sync.Mutex
		got := make(map[string]string)
		run(f, func(url string) {
			_, err := f.Fetch(NewGet(url))
			mark := "."
			if err != nil {
				mark = "X"
			}
			mu.Lock()
			got[url] += mark
			mu.Unlock()
		})
		return got
	}

	// Reference: every URL's attempts issued back to back, URL by URL.
	sequential := outcomes(func(f *Flaky, fetch func(string)) {
		for _, u := range urls {
			for i := 0; i < attempts; i++ {
				fetch(u)
			}
		}
	})
	// Interleaved round-robin across URLs on one goroutine.
	interleaved := outcomes(func(f *Flaky, fetch func(string)) {
		for i := 0; i < attempts; i++ {
			for _, u := range urls {
				fetch(u)
			}
		}
	})
	// Concurrent: one goroutine per URL, schedules free to collide.
	concurrent := outcomes(func(f *Flaky, fetch func(string)) {
		var wg sync.WaitGroup
		for _, u := range urls {
			wg.Add(1)
			go func(u string) {
				defer wg.Done()
				for i := 0; i < attempts; i++ {
					fetch(u)
				}
			}(u)
		}
		wg.Wait()
	})

	for _, u := range urls {
		if sequential[u] != interleaved[u] {
			t.Errorf("%s: interleaving changed the failure pattern\nsequential:  %s\ninterleaved: %s",
				u, sequential[u], interleaved[u])
		}
		if sequential[u] != concurrent[u] {
			t.Errorf("%s: concurrency changed the failure pattern\nsequential: %s\nconcurrent: %s",
				u, sequential[u], concurrent[u])
		}
	}
	// The injection must actually do something in this configuration.
	all := ""
	for _, u := range urls {
		all += sequential[u]
	}
	if !strings.Contains(all, "X") || !strings.Contains(all, ".") {
		t.Fatalf("degenerate failure pattern: %q", all)
	}
}

func TestFlakyDisabled(t *testing.T) {
	f := &Flaky{Inner: okFetcher()}
	for i := 0; i < 50; i++ {
		if _, err := f.Fetch(NewGet("http://h/x")); err != nil {
			t.Fatalf("disabled flaky failed: %v", err)
		}
	}
}

func TestWithRetryRecovers(t *testing.T) {
	flaky := &Flaky{Inner: okFetcher(), FailEvery: 2} // ~half of fetches fail
	f := WithRetry(flaky, 5, &Stats{})
	for i := 0; i < 100; i++ {
		if _, err := f.Fetch(NewGet("http://h/x")); err != nil {
			t.Fatalf("retry did not recover: %v", err)
		}
	}
}

func TestWithRetryGivesUp(t *testing.T) {
	always := FetcherFunc(func(req *Request) (*Response, error) {
		return nil, ErrSimulatedOutage
	})
	f := WithRetry(always, 2, nil)
	_, err := f.Fetch(NewGet("http://h/x"))
	if !errors.Is(err, ErrSimulatedOutage) {
		t.Fatalf("err = %v", err)
	}
}

func TestWithRetryPassesStatusThrough(t *testing.T) {
	notFound := FetcherFunc(func(req *Request) (*Response, error) {
		return NotFound(req.URL), nil
	})
	resp, err := WithRetry(notFound, 3, nil).Fetch(NewGet("http://h/x"))
	if err != nil || resp.Status != 404 {
		t.Fatalf("404 should pass through unretried: %v %v", resp, err)
	}
}

// TestWithRetryCanceledContext is the regression test for the tight
// retry loop: a canceled context must abort immediately instead of
// burning the remaining retries against a dead site.
func TestWithRetryCanceledContext(t *testing.T) {
	var calls atomic.Int64
	always := FetcherFunc(func(req *Request) (*Response, error) {
		calls.Add(1)
		return nil, ErrSimulatedOutage
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the first attempt
	f := WithRetry(always, 100, nil)
	_, err := f.Fetch(NewGet("http://h/x").WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls.Load() != 0 {
		t.Fatalf("canceled fetch still made %d attempts", calls.Load())
	}

	// Cancel mid-retry: the attempt in flight is the last one issued.
	ctx2, cancel2 := context.WithCancel(context.Background())
	calls.Store(0)
	cancelling := FetcherFunc(func(req *Request) (*Response, error) {
		if calls.Add(1) == 2 {
			cancel2()
		}
		return nil, ErrSimulatedOutage
	})
	_, err = WithRetry(cancelling, 100, nil).Fetch(NewGet("http://h/y").WithContext(ctx2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-retry err = %v, want context.Canceled", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("attempts after mid-retry cancel = %d, want 2", got)
	}
}

// TestWithRetryClassifiesTerminalFailure: retries exhausted must
// surface as a host-attributed Outage while keeping the original error
// reachable through the chain.
func TestWithRetryClassifiesTerminalFailure(t *testing.T) {
	always := FetcherFunc(func(req *Request) (*Response, error) {
		return nil, ErrSimulatedOutage
	})
	_, err := WithRetry(always, 2, nil).Fetch(NewGet("http://dead.example/x"))
	if !IsOutage(err) {
		t.Fatalf("terminal failure not classified as outage: %v", err)
	}
	if got := FailingHost(err); got != "dead.example" {
		t.Fatalf("failing host = %q", got)
	}
	if !errors.Is(err, ErrSimulatedOutage) {
		t.Fatalf("original cause lost from chain: %v", err)
	}
	if IsOutage(context.Canceled) || IsSiteAnswer(err) {
		t.Fatal("taxonomy cross-talk")
	}
}

// TestBackoffDeterministicJitter: delays must grow exponentially, stay
// within [base·2ⁿ⁻¹/2, base·2ⁿ⁻¹] (jitter), respect the cap, and be a
// pure function of (URL, attempt).
func TestBackoffDeterministicJitter(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Second}
	prevFull := time.Duration(0)
	for retry := 1; retry <= 6; retry++ {
		full := b.Base << uint(retry-1)
		if full > b.Max {
			full = b.Max
		}
		d := b.Delay("http://h/x", retry)
		if d < full/2 || d > full {
			t.Errorf("retry %d: delay %v outside [%v, %v]", retry, d, full/2, full)
		}
		if d2 := b.Delay("http://h/x", retry); d2 != d {
			t.Errorf("retry %d: nondeterministic delay %v vs %v", retry, d, d2)
		}
		if prevFull > 0 && full < prevFull {
			t.Errorf("retry %d: cap not monotone", retry)
		}
		prevFull = full
	}
	// Different URLs decorrelate.
	same := 0
	for i := 0; i < 8; i++ {
		u := fmt.Sprintf("http://h/%d", i)
		if b.Delay(u, 1) == b.Delay("http://h/x", 1) {
			same++
		}
	}
	if same == 8 {
		t.Error("jitter ignores the URL")
	}
	if (Backoff{}).Delay("http://h/x", 1) != 0 {
		t.Error("zero backoff must not wait")
	}
}

// TestBackoffNominal: Base·2ⁿ⁻¹ up to the cap, on the four schedules
// that used to be written out where they were used — and past the point
// where the uncapped one, a plain shift, overflowed.
func TestBackoffNominal(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		name string
		b    Backoff
		want []time.Duration // Nominal(1), Nominal(2), ...
	}{
		{"retries", Backoff{Base: 100 * ms, Max: time.Second}, []time.Duration{100 * ms, 200 * ms, 400 * ms, 800 * ms, time.Second, time.Second}},
		{"endpoint bench", Backoff{Base: 100 * ms, Max: 250 * ms}, []time.Duration{100 * ms, 200 * ms, 250 * ms, 250 * ms}},
		{"base over the cap", Backoff{Base: time.Second, Max: 300 * ms}, []time.Duration{300 * ms, 300 * ms}},
		{"repair, uncapped", Backoff{Base: 100 * ms}, []time.Duration{100 * ms, 200 * ms, 400 * ms, 800 * ms, 1600 * ms}},
		{"recovery, 64x", Backoff{Base: ms, Max: 64 * ms}, []time.Duration{ms, 2 * ms, 4 * ms, 8 * ms, 16 * ms, 32 * ms, 64 * ms, 64 * ms, 64 * ms}},
		{"off", Backoff{}, []time.Duration{0, 0}},
	} {
		for i, want := range tc.want {
			if got := tc.b.Nominal(i + 1); got != want {
				t.Errorf("%s: Nominal(%d) = %v, want %v", tc.name, i+1, got, want)
			}
		}
	}
	if (Backoff{Base: ms}).Nominal(0) != 0 {
		t.Error("there is no wait before a first attempt")
	}
	for _, n := range []int{63, 64, 65, 1 << 30} {
		if got := (Backoff{Base: 100 * ms}).Nominal(n); got != math.MaxInt64 {
			t.Errorf("uncapped Nominal(%d) = %v, want saturation", n, got)
		}
		if got := (Backoff{Base: 100 * ms, Max: time.Hour}).Nominal(n); got != time.Hour {
			t.Errorf("capped Nominal(%d) = %v, want the cap", n, got)
		}
	}
}

// TestWithRetryPolicyBackoffWaits: the policy must sleep between
// attempts with the configured schedule and honor cancellation during
// the wait.
func TestWithRetryPolicyBackoffWaits(t *testing.T) {
	var slept []time.Duration
	always := FetcherFunc(func(req *Request) (*Response, error) {
		return nil, ErrSimulatedOutage
	})
	p := RetryPolicy{
		Retries: 3,
		Backoff: Backoff{Base: 10 * time.Millisecond},
		Sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}
	WithRetryPolicy(always, p, nil).Fetch(NewGet("http://h/x"))
	if len(slept) != 3 {
		t.Fatalf("slept %d times, want 3", len(slept))
	}
	for i, d := range slept {
		full := p.Backoff.Base << uint(i)
		if d < full/2 || d > full {
			t.Errorf("sleep %d = %v outside [%v, %v]", i, d, full/2, full)
		}
	}

	// A cancellation surfaced by Sleep aborts the loop.
	var calls atomic.Int64
	counting := FetcherFunc(func(req *Request) (*Response, error) {
		calls.Add(1)
		return nil, ErrSimulatedOutage
	})
	p.Sleep = func(ctx context.Context, d time.Duration) error { return context.Canceled }
	_, err := WithRetryPolicy(counting, p, nil).Fetch(NewGet("http://h/x"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("attempts = %d, want 1 (abort during first backoff)", calls.Load())
	}
}

// TestRetryBudget: a per-query budget caps total re-issues across
// requests sharing the context; without a budget retries are unlimited.
func TestRetryBudget(t *testing.T) {
	var calls atomic.Int64
	always := FetcherFunc(func(req *Request) (*Response, error) {
		calls.Add(1)
		return nil, ErrSimulatedOutage
	})
	f := WithRetry(always, 10, nil)
	ctx := WithQuery(context.Background(), &Query{RetryBudget: 3})

	_, err := f.Fetch(NewGet("http://h/a").WithContext(ctx))
	if !IsOutage(err) {
		t.Fatalf("err = %v", err)
	}
	// First request: initial attempt + 3 budgeted re-issues.
	if calls.Load() != 4 {
		t.Fatalf("attempts = %d, want 4 (budget of 3 re-issues)", calls.Load())
	}
	// Budget is shared and now dry: the next request gets one attempt.
	calls.Store(0)
	f.Fetch(NewGet("http://h/b").WithContext(ctx))
	if calls.Load() != 1 {
		t.Fatalf("attempts with dry budget = %d, want 1", calls.Load())
	}
	// No budget on the context: all retries run.
	calls.Store(0)
	f.Fetch(NewGet("http://h/c"))
	if calls.Load() != 11 {
		t.Fatalf("attempts without budget = %d, want 11", calls.Load())
	}
}

// TestOutageMemoReplays: a terminal failure is decided once per request
// key and replayed for later fetches without touching the network; other
// keys are unaffected, and other queries (other memos) start fresh.
func TestOutageMemoReplays(t *testing.T) {
	var calls atomic.Int64
	always := FetcherFunc(func(req *Request) (*Response, error) {
		calls.Add(1)
		if hostOf(req.URL) == "dead" {
			return nil, ErrSimulatedOutage
		}
		return HTML(req.URL, "<html><body>ok</body></html>"), nil
	})
	f := WithOutageMemo(WithRetry(always, 2, nil))
	q := &Query{}
	memo := &q.Memo
	ctx := WithQuery(context.Background(), q)

	_, err1 := f.Fetch(NewGet("http://dead/x").WithContext(ctx))
	if !IsOutage(err1) {
		t.Fatalf("err = %v", err1)
	}
	after := calls.Load() // 3 attempts
	_, err2 := f.Fetch(NewGet("http://dead/x").WithContext(ctx))
	if calls.Load() != after {
		t.Fatal("memoized outage still touched the network")
	}
	if err2 == nil || err2.Error() != err1.Error() {
		t.Fatalf("replayed error differs: %v vs %v", err2, err1)
	}
	if memo.Len() != 1 {
		t.Fatalf("memo len = %d", memo.Len())
	}
	// Different key: unaffected.
	if _, err := f.Fetch(NewGet("http://alive/x").WithContext(ctx)); err != nil {
		t.Fatalf("alive fetch failed: %v", err)
	}
	// A new query (fresh memo) retries the site.
	before := calls.Load()
	f.Fetch(NewGet("http://dead/x").WithContext(
		WithQuery(context.Background(), &Query{})))
	if calls.Load() == before {
		t.Fatal("fresh memo should have touched the network again")
	}
	// No memo on the context: pass-through.
	if _, err := f.Fetch(NewGet("http://alive/y")); err != nil {
		t.Fatalf("memoless fetch failed: %v", err)
	}
}
