package web

import (
	"sync"
	"sync/atomic"
	"time"

	"webbase/internal/once"
	"webbase/internal/trace"
)

// This file holds the middlewares that make the fetch stack safe and
// efficient under parallel query evaluation: WithSingleflight collapses
// identical concurrent requests (Benedikt & Gottlob's "determining
// relevance of accesses at runtime" — don't repeat an access another
// branch is already performing), and WithBulkhead caps per-host
// concurrency so parallel union branches never hammer one site.

// WithSingleflight wraps inner so that concurrent fetches of the same
// request (same canonical Key) execute inner.Fetch once and share the
// answer. Union branches and dependent-join invocations frequently land
// on the same form submission at the same moment; without deduplication
// they would all miss the cache simultaneously and fetch redundantly.
// Followers are counted in stats.Deduped. The shared *Response is treated
// as immutable by the whole stack (the cache already shares responses).
//
// Followers take the leader's failures too, except one that follows its
// own request's cancellation: then a live follower fetches for itself. A
// follower whose request is cancelled stops waiting at once (once.Table).
//
// The guarantee is "overlapping fetches collapse", not "one fetch per
// key": a flight is forgotten the moment inner returns, and a request
// arriving after that starts a new one. A stack that wants each page
// fetched once therefore makes the result findable before inner returns —
// WithCacheFill inside the flight, WithCacheLookup outside it.
func WithSingleflight(inner Fetcher, stats *Stats) Fetcher {
	var flights once.Table[*Response]
	return FetcherFunc(func(req *Request) (*Response, error) {
		resp, joined, err := flights.Do(req.Context(), req.Key(),
			func() (*Response, error) { return inner.Fetch(req) }, shareAll)
		if joined {
			statsFor(req.Context(), stats).add(Deduped, 1)
			trace.FromContext(req.Context()).Label("outcome", "dedup")
		}
		return resp, err
	})
}

// shareAll hands every result of a flight to its followers and keeps none.
func shareAll(*Response, error) (share, keep bool) { return true, false }

// WithBulkhead wraps inner with a per-host bulkhead: at most perHost
// fetches execute against any one host at a time, at most maxQueue more
// wait behind them, and fetches beyond that are shed immediately with an
// outage-classified ErrHostSaturated so the owning maximal object
// degrades instead of camping on a worker-pool slot. This is how one
// slow-but-alive host is kept from absorbing the whole query's
// concurrency: the politeness cap of PR 1 plus a bound on how much work
// is allowed to pile up behind it. maxQueue <= 0 means an unbounded
// queue (no shedding); perHost <= 0 disables the bulkhead entirely.
//
// Queued fetches honor context cancellation, and blocked senders on the
// slot channel are woken in arrival order, so waiters that do run are
// served FIFO-ish. Waiting time accumulates in LimiterWait and sheds in
// BulkheadSheds, on the bill of the fetch's query or in stats; the global
// in-flight high-water mark is always stats.PeakInFlight.
//
// Like the circuit breaker, a saturation shed trades the byte-identical
// answer for bounded resource use: whether a fetch sheds depends on how
// much load is in front of it, which is a property of the schedule. Runs
// that need byte-identical answers under overload should bound load at
// admission (the query server's gate) rather than per host.
//
// Fetches never hold one host's slot while waiting for another's, so the
// bulkhead cannot deadlock.
func WithBulkhead(inner Fetcher, perHost, maxQueue int, stats *Stats) Fetcher {
	if perHost <= 0 {
		return inner
	}
	type bulkhead struct {
		sem     chan struct{}
		waiting atomic.Int64
	}
	var mu sync.Mutex
	hosts := make(map[string]*bulkhead)
	return FetcherFunc(func(req *Request) (*Response, error) {
		host := hostOf(req.URL)
		mu.Lock()
		bh, ok := hosts[host]
		if !ok {
			bh = &bulkhead{sem: make(chan struct{}, perHost)}
			hosts[host] = bh
		}
		mu.Unlock()

		start := time.Now()
		select {
		case bh.sem <- struct{}{}:
		default:
			// Every slot is busy: join the wait queue, bounded when
			// maxQueue > 0. Add-then-check keeps the bound exact under
			// concurrent arrivals.
			if w := bh.waiting.Add(1); maxQueue > 0 && w > int64(maxQueue) {
				bh.waiting.Add(-1)
				statsFor(req.Context(), stats).add(BulkheadSheds, 1)
				trace.FromContext(req.Context()).Label("outcome", "host-saturated")
				return nil, MarkOutage(&HostError{Host: host, Err: ErrHostSaturated})
			}
			select {
			case bh.sem <- struct{}{}:
				bh.waiting.Add(-1)
			case <-req.Context().Done():
				bh.waiting.Add(-1)
				return nil, req.Context().Err()
			}
		}
		defer func() { <-bh.sem }()
		statsFor(req.Context(), stats).add(LimiterWait, int64(time.Since(start)))
		if stats != nil {
			in := stats.inflight.Add(1)
			for {
				peak := stats.peakInflight.Load()
				if in <= peak || stats.peakInflight.CompareAndSwap(peak, in) {
					break
				}
			}
			defer stats.inflight.Add(-1)
		}
		return inner.Fetch(req)
	})
}
