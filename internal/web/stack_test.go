package web

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"webbase/internal/trace"
)

// buildStack composes the full production middleware order — cache
// lookup → singleflight → cache fill → outage memo → breaker → host
// limiter → retry(flaky) — exactly as core.NewDomain assembles it,
// returning the outermost fetcher plus the observable pieces.
func buildStack(failEvery uint64, retries int) (Fetcher, *Stats, *Cache) {
	stats := &Stats{}
	raw := &Flaky{Inner: okFetcher(), FailEvery: failEvery}
	f := WithRetryPolicy(raw, RetryPolicy{Retries: retries}, stats)
	f = Counting(f, stats)
	f = WithBulkhead(f, 2, 0, stats)
	f = WithBreaker(f, BreakerConfig{Window: 64, FailureRatio: 0.99,
		Cooldown: time.Hour, Clock: newTick().Clock()}, stats)
	f = WithOutageMemo(f)
	cache := NewCache()
	f = WithCacheLookup(WithSingleflight(WithCacheFill(f, cache), stats), cache)
	return f, stats, cache
}

// TestStackEndToEndAccounting runs the same workload through the full
// stack at 1 and at 8 workers and checks the serving-outcome identity:
// every successful fetch was served exactly one way, so
//
//	cache hits + deduped + network pages + stale = total fetches
//
// and the trace outcome labels agree with the Stats counters.
func TestStackEndToEndAccounting(t *testing.T) {
	var urls []string
	for h := 0; h < 4; h++ {
		for p := 0; p < 5; p++ {
			urls = append(urls, fmt.Sprintf("http://host%d/page/%d", h, p))
		}
	}
	// Each URL fetched 5 times: plenty of cache hits, and under 8
	// workers plenty of chances for singleflight collapses.
	var ops []string
	for i := 0; i < 5; i++ {
		ops = append(ops, urls...)
	}

	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// FailEvery=2 with 5 retries: every request key recovers
			// (deterministically — Flaky hashes (attempt, URL)), so all
			// ops succeed and the identity covers the whole workload.
			f, stats, cache := buildStack(2, 5)
			tr := trace.New("stack", nil)
			ctx := trace.ContextWith(context.Background(), tr.Root)
			q := &Query{}
			ctx = WithQuery(ctx, q)

			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < len(ops); i += workers {
						sp := trace.Start(ctx, trace.KindFetch, ops[i])
						req := NewGet(ops[i]).WithContext(trace.ContextWith(ctx, sp))
						resp, err := f.Fetch(req)
						sp.EndErr(err)
						if err != nil {
							t.Errorf("fetch %s: %v", ops[i], err)
						} else if len(resp.Body) == 0 {
							t.Errorf("fetch %s: empty body", ops[i])
						}
					}
				}(w)
			}
			wg.Wait()
			tr.Root.End()
			stats.Add(&q.Stats) // the query's bill, folded as core does when it ends

			total := int64(len(ops))
			served := cache.Hits() + stats.Deduped() + stats.Pages() + cache.Stale()
			if served != total {
				t.Errorf("identity broken: hits=%d + deduped=%d + network=%d + stale=%d = %d, want %d",
					cache.Hits(), stats.Deduped(), stats.Pages(), cache.Stale(), served, total)
			}
			// Every distinct URL touched the network exactly once, at any
			// worker count: a request that missed the cache either joins
			// the flight fetching its page or, arriving after the flight
			// ended, finds the page the flight stored before it ended.
			if stats.Pages() != int64(len(urls)) {
				t.Errorf("network fetches = %d, want %d", stats.Pages(), len(urls))
			}
			if stats.BreakerRejects() != 0 {
				t.Errorf("breaker rejected %d fetches in a recovering workload", stats.BreakerRejects())
			}

			// Trace outcome labels must tell the same story as Stats.
			outcomes := map[string]int64{}
			tr.Root.Walk(func(sp *trace.Span) {
				if sp.Kind() == trace.KindFetch {
					outcomes[sp.LabelValue("outcome")]++
				}
			})
			if outcomes["cache"] != cache.Hits() {
				t.Errorf("outcome=cache spans = %d, cache hits = %d", outcomes["cache"], cache.Hits())
			}
			if outcomes["dedup"] != stats.Deduped() {
				t.Errorf("outcome=dedup spans = %d, deduped = %d", outcomes["dedup"], stats.Deduped())
			}
			if outcomes["network"] != stats.Pages() {
				t.Errorf("outcome=network spans = %d, pages = %d", outcomes["network"], stats.Pages())
			}
			if outcomes["stale"] != cache.Stale() {
				t.Errorf("outcome=stale spans = %d, stale = %d", outcomes["stale"], cache.Stale())
			}
			if sum := outcomes["cache"] + outcomes["dedup"] + outcomes["network"] + outcomes["stale"]; sum != total {
				t.Errorf("labeled spans = %d, want %d (outcomes: %v)", sum, total, outcomes)
			}
		})
	}
}

// TestStackDeadHostIsolated: with one host terminally down, the other
// hosts' fetches all succeed, the dead host's requests fail with a
// host-attributed outage decided once per request key (the memo), and
// the serving identity holds for the successes.
func TestStackDeadHostIsolated(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			stats := &Stats{}
			raw := FetcherFunc(func(req *Request) (*Response, error) {
				if hostOf(req.URL) == "dead" {
					return nil, ErrSimulatedOutage
				}
				return HTML(req.URL, "<html><body>ok</body></html>"), nil
			})
			f := WithRetryPolicy(raw, RetryPolicy{Retries: 2}, stats)
			f = Counting(f, stats)
			f = WithBulkhead(f, 2, 0, stats)
			f = WithOutageMemo(f)
			cache := NewCache()
			f = WithCacheLookup(WithSingleflight(WithCacheFill(f, cache), stats), cache)
			q := &Query{}
			ctx := WithQuery(context.Background(), q)

			var ops []string
			for p := 0; p < 4; p++ {
				ops = append(ops, fmt.Sprintf("http://dead/p/%d", p),
					fmt.Sprintf("http://alive/p/%d", p))
			}
			ops = append(ops, ops...) // every URL twice

			var mu sync.Mutex
			successes, failures := int64(0), 0
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < len(ops); i += workers {
						_, err := f.Fetch(NewGet(ops[i]).WithContext(ctx))
						mu.Lock()
						if err != nil {
							failures++
							if !IsOutage(err) || FailingHost(err) != "dead" {
								t.Errorf("%s: bad failure %v", ops[i], err)
							}
						} else {
							successes++
						}
						mu.Unlock()
					}
				}(w)
			}
			wg.Wait()
			stats.Add(&q.Stats)

			if failures != 8 { // 4 dead URLs × 2 ops each
				t.Errorf("failures = %d, want 8", failures)
			}
			if served := cache.Hits() + stats.Deduped() + stats.Pages() + cache.Stale(); served < successes {
				t.Errorf("identity: served=%d < successes=%d", served, successes)
			}
		})
	}
}

// TestStackBillsQueryOrConstructorStats: a fetch with no query on its
// context (the repair worker, PopulateAll) counts into the Stats the
// stack was constructed with; a fetch with one counts into the query's
// bill and nowhere else — except the lifetime-only per-host counts and the
// cache's own hit counter, which every fetch moves.
func TestStackBillsQueryOrConstructorStats(t *testing.T) {
	f, stats, cache := buildStack(2, 5)
	urls := []string{"http://host0/a", "http://host0/b", "http://host1/a"}
	fetchAll := func(ctx context.Context) {
		t.Helper()
		for _, u := range urls {
			if _, err := f.Fetch(NewGet(u).WithContext(ctx)); err != nil {
				t.Fatal(err)
			}
		}
	}

	fetchAll(context.Background())
	if stats.Pages() != 3 || stats.Retries() == 0 || stats.Bytes() == 0 {
		t.Fatalf("queryless fetches: constructor stats pages=%d retries=%d bytes=%d, want 3, >0, >0",
			stats.Pages(), stats.Retries(), stats.Bytes())
	}
	fetchAll(context.Background()) // hits outside any query: the cache counts them, no bill does
	if cache.Hits() != 3 || stats.CacheHits() != 0 {
		t.Fatalf("queryless hits: cache.Hits=%d stats.CacheHits=%d, want 3 and 0", cache.Hits(), stats.CacheHits())
	}

	cache.Clear()
	pages, retries, bytes := stats.Pages(), stats.Retries(), stats.Bytes()
	q := &Query{}
	ctx := WithQuery(context.Background(), q)
	fetchAll(ctx)
	fetchAll(ctx)
	if q.Stats.Pages() != 3 || q.Stats.CacheHits() != 3 || q.Stats.Bytes() != bytes {
		t.Errorf("query's bill: pages=%d cache-hits=%d bytes=%d, want 3, 3, %d",
			q.Stats.Pages(), q.Stats.CacheHits(), q.Stats.Bytes(), bytes)
	}
	if stats.Pages() != pages || stats.Retries() != retries || stats.Bytes() != bytes {
		t.Errorf("a query's fetches leaked into the constructor stats: pages %d→%d retries %d→%d bytes %d→%d",
			pages, stats.Pages(), retries, stats.Retries(), bytes, stats.Bytes())
	}
	if got := stats.PerHost()["host0"]; got != 4 {
		t.Errorf("per-host count for host0 = %d, want 4 (lifetime-only, query or not)", got)
	}
	if cache.Hits() != 6 {
		t.Errorf("cache.Hits = %d, want 6", cache.Hits())
	}
}
