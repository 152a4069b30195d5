package web

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"webbase/internal/trace"
)

// ErrSimulatedOutage is the error injected by Flaky.
var ErrSimulatedOutage = errors.New("web: simulated network outage")

// Flaky wraps a fetcher with deterministic failure injection: an attempt
// fails with ErrSimulatedOutage when the hash of (URL, per-request attempt
// number) falls under FailEvery. With FailEvery = 3 roughly every third
// fetch fails. The 1998 Web failed constantly; the webbase has to live
// with that.
//
// Attempt numbers are counted per canonical request key, not globally:
// hashing a global sequence number would make *which* URL fails depend on
// how goroutines interleave under parallel workers, and fault-injection
// tests would become schedule-dependent. With per-request counting, the
// n-th attempt at a given request fails or succeeds identically no matter
// what else is in flight.
type Flaky struct {
	Inner     Fetcher
	FailEvery uint64 // every n-th eligible attempt fails; 0 disables

	seq      atomic.Uint64 // total attempts across all requests
	mu       sync.Mutex
	attempts map[string]uint64 // canonical request key → attempts seen
}

// Fetch implements Fetcher with injected failures.
func (f *Flaky) Fetch(req *Request) (*Response, error) {
	f.seq.Add(1)
	if f.FailEvery > 0 {
		f.mu.Lock()
		if f.attempts == nil {
			f.attempts = make(map[string]uint64)
		}
		f.attempts[req.Key()]++
		n := f.attempts[req.Key()]
		f.mu.Unlock()
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%s", n, req.URL)
		if h.Sum64()%f.FailEvery == 0 {
			return nil, fmt.Errorf("%w: %s", ErrSimulatedOutage, req.URL)
		}
	}
	return f.Inner.Fetch(req)
}

// Attempts reports how many fetches Flaky has seen (including failed
// ones).
func (f *Flaky) Attempts() uint64 { return f.seq.Load() }

// Backoff spaces re-issued attempts exponentially: the n-th retry waits
// roughly Base·2ⁿ⁻¹, capped at Max, with deterministic per-request jitter
// — the final delay lands in [d/2, d] at a point chosen by hashing
// (attempt, request), so concurrent retries decorrelate without
// introducing real randomness (runs stay reproducible). The client keys
// its reconnects' jitter by request ID. The zero value disables waiting
// entirely.
type Backoff struct {
	Base time.Duration // first retry's nominal delay; 0 disables backoff
	Max  time.Duration // cap on the exponential growth; 0 = uncapped
}

// Nominal is the n-th delay (n counts from 1) before jitter: Base·2ⁿ⁻¹,
// capped at Max, and with no cap saturating instead of overflowing. It
// is the one place a capped doubling is computed — the client's
// reconnects and endpoint benches and the health tracker's repair and
// recovery waits all space themselves by it.
func (b Backoff) Nominal(n int) time.Duration {
	if b.Base <= 0 || n <= 0 {
		return 0
	}
	limit := b.Max
	if limit <= 0 {
		limit = math.MaxInt64
	}
	d := b.Base
	for ; n > 1; n-- {
		if d > limit/2 {
			return limit
		}
		d *= 2
	}
	return min(d, limit)
}

// Delay returns the wait before the retry-th re-issued attempt (retry
// counts from 1) of the request id names.
func (b Backoff) Delay(id string, retry int) time.Duration {
	d := b.Nominal(retry)
	if half := d / 2; half > 0 {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%s", retry, id)
		d = half + time.Duration(h.Sum64()%uint64(half+1))
	}
	return d
}

// WithRetryPolicy wraps inner so that a failed fetch is re-attempted at
// once, up to p.Retries times. Retrying is safe: webbase navigation only
// performs idempotent reads (the paper's system never updates the sites
// it queries). Non-success status codes are returned as-is — they are the
// site's answer, not a transport failure.
//
// The request's context is honored between attempts: a cancelled context
// aborts the loop immediately, returning the context's error unclassified
// rather than burning the remaining retries. A terminal failure — every
// attempt failed — is classified as an Outage and attributed to the host
// (HostError), which is what lets the UR layer degrade around the dead
// site. Re-issued attempts accumulate on the query's bill or in stats
// (which may be nil) and on the request's trace span.
func WithRetryPolicy(inner Fetcher, p Policy, stats *Stats) Fetcher {
	return FetcherFunc(func(req *Request) (*Response, error) {
		ctx := req.Context()
		var lastErr error
		attempts := 0
		for attempt := 0; attempt <= p.Retries; attempt++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			resp, err := inner.Fetch(req)
			attempts++
			if err == nil {
				return resp, nil
			}
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, err
			}
			lastErr = err
			if attempt == p.Retries {
				break
			}
			statsFor(ctx, stats).add(Retries, 1)
			trace.FromContext(ctx).Label("attempts", strconv.Itoa(attempt+2))
		}
		return nil, MarkOutage(&HostError{Host: hostOf(req.URL),
			Err: fmt.Errorf("web: %d attempts failed: %w", attempts, lastErr)})
	})
}

// WithOutageMemo wraps inner so that Outage-classified failures are
// remembered, for the lifetime of the query on the request context (if
// any), and replayed for subsequent fetches of the same request without
// touching inner, so sibling maximal objects and later navigation steps
// don't re-pay the full retry ladder for a site the query already knows is
// down. Replayed failures are labeled outcome=unavailable on the trace
// span.
//
// The memo is keyed by canonical request key, not by host, and it sits
// directly below the singleflight middleware. That pairing makes failure
// outcomes schedule-independent: each request key's terminal verdict is
// decided exactly once (concurrent duplicates collapse in singleflight;
// later duplicates hit the memo), so a query's degradation behavior is
// identical at Workers=1 and Workers=8. A host-keyed memo would instead
// make request B's outcome depend on whether request A happened to fail
// first — exactly the schedule dependence the determinism suite forbids.
func WithOutageMemo(inner Fetcher) Fetcher {
	return FetcherFunc(func(req *Request) (*Response, error) {
		q := QueryFrom(req.Context())
		if q == nil {
			return inner.Fetch(req)
		}
		resp, replayed, err := q.memo.Do(req.Context(), req.Key(),
			func() (*Response, error) { return inner.Fetch(req) }, keepOutages)
		if replayed {
			trace.FromContext(req.Context()).Label("outcome", "unavailable")
		}
		return resp, err
	})
}

// keepOutages shares and keeps a terminal site failure, but not a budget
// shed: that is the calling object's verdict on its own remaining time, and
// replaying it would fail objects whose budgets are healthy. (The budget
// middleware sits above the memo; the guard holds if the stack is reordered.)
func keepOutages(_ *Response, err error) (share, keep bool) {
	outage := err != nil && IsOutage(err) && !IsBudgetExhausted(err)
	return outage, outage
}
