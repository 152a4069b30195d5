package web

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webbase/internal/trace"
)

// buildStack is NewStack over raw with the breaker, hedge and deadline
// layers on (none of them fires in these workloads) and a host limit of 2.
func buildStack(raw Fetcher, retries int) *Stack {
	return NewStack(raw, LatencyModel{}, newTick().Clock(), nil, Policy{
		Retries:    retries,
		HostLimit:  2,
		HedgeAfter: time.Minute,
		Deadline:   time.Hour,
		Breaker:    &BreakerConfig{Window: 64, FailureRatio: 0.99, Cooldown: time.Hour},
	})
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
			s := buildStack(&Flaky{Inner: okFetcher(), FailEvery: 2}, 5)
			f, stats, cache := s.Fetcher, s.Stats, s.Cache
			tr := trace.New("stack", nil)
			ctx := trace.ContextWith(context.Background(), tr.Root)
			q := s.NewQuery()
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
			s := buildStack(FetcherFunc(func(req *Request) (*Response, error) {
				if hostOf(req.URL) == "dead" {
					return nil, ErrSimulatedOutage
				}
				return HTML(req.URL, "<html><body>ok</body></html>"), nil
			}), 2)
			f, stats, cache := s.Fetcher, s.Stats, s.Cache
			q := s.NewQuery()
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
	s := buildStack(&Flaky{Inner: okFetcher(), FailEvery: 2}, 5)
	f, stats, cache := s.Fetcher, s.Stats, s.Cache
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
	q := s.NewQuery()
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

// TestStackZeroPolicy pins, from outcomes, what each zero or negative
// Policy field means in the stack NewStack builds.
func TestStackZeroPolicy(t *testing.T) {
	for _, tc := range []struct {
		name  string
		p     Policy
		check func(t *testing.T, p Policy)
	}{
		{"HedgeAfter=0", Policy{}, noHedge},
		{"HedgeAfter<0", Policy{HedgeAfter: -time.Second}, noHedge},
		{"Breaker=nil", Policy{}, noBreakerReject},
		{"Deadline=0", Policy{}, noBudgetShed},
		{"Deadline<0", Policy{Deadline: -time.Second}, noBudgetShed},
		{"HostLimit=0", Policy{}, inFlightCap(DefaultHostLimit)},
		{"HostLimit<0", Policy{HostLimit: -1}, inFlightCap(0)},
		{"HostQueue=0", Policy{HostLimit: 1}, noShed},
		{"HostQueue<0", Policy{HostLimit: 1, HostQueue: -1}, noShed},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.check(t, tc.p) })
	}
}

// noHedge: a fetch far slower than any hedge delay is attempted once and
// its span carries no hedge label.
func noHedge(t *testing.T, p Policy) {
	raw := &slowEveryAttempt{delay: 20 * time.Millisecond}
	s := NewStack(raw, LatencyModel{}, nil, nil, p)
	tr := trace.New("hedge", nil)
	sp := trace.Start(trace.ContextWith(context.Background(), tr.Root), trace.KindFetch, "http://slow.example/p")
	if _, err := s.Fetcher.Fetch(NewGet("http://slow.example/p").WithContext(trace.ContextWith(context.Background(), sp))); err != nil {
		t.Fatal(err)
	}
	sp.End()
	if raw.attempts.Load() != 1 || s.Stats.Hedges() != 0 || sp.LabelValue("hedged") != "" || sp.LabelValue("hedge") != "" {
		t.Errorf("attempts %d, hedges %d, labels %q/%q; want one attempt and no hedge",
			raw.attempts.Load(), s.Stats.Hedges(), sp.LabelValue("hedged"), sp.LabelValue("hedge"))
	}
}

// noBreakerReject: a host failing every fetch is tried every time.
func noBreakerReject(t *testing.T, p Policy) {
	var calls atomic.Int64
	s := NewStack(FetcherFunc(func(req *Request) (*Response, error) {
		calls.Add(1)
		return nil, ErrSimulatedOutage
	}), LatencyModel{}, nil, nil, p)
	for i := 0; i < 20; i++ {
		if _, err := s.Fetcher.Fetch(NewGet("http://dead.example/p")); !IsOutage(err) {
			t.Fatalf("fetch %d: err = %v, want an outage", i, err)
		}
	}
	if s.Breaker != nil || calls.Load() != 20 || s.Stats.BreakerRejects() != 0 {
		t.Errorf("breaker %v, %d fetches reached the host, %d rejected; want none, 20, 0",
			s.Breaker, calls.Load(), s.Stats.BreakerRejects())
	}
}

// noBudgetShed: a fetch under a spent deadline budget still runs, and a
// query mints no budget.
func noBudgetShed(t *testing.T, p Policy) {
	s := NewStack(okFetcher(), LatencyModel{}, nil, nil, p)
	clock := newFakeClock()
	b := NewBudget(time.Second, clock.Now)
	clock.Advance(time.Hour)
	q := s.NewQuery()
	ctx := ContextWithBudget(WithQuery(context.Background(), q), b)
	if _, err := s.Fetcher.Fetch(NewGet("http://a.example/p").WithContext(ctx)); err != nil {
		t.Fatalf("fetch under a spent budget: %v", err)
	}
	if q.Stats.BudgetSheds() != 0 || q.NewBudget() != nil {
		t.Errorf("budget sheds %d, minted budget %v; want 0 and none", q.Stats.BudgetSheds(), q.NewBudget())
	}
}

// inFlightCap: twelve concurrent fetches at one host run at most want at a
// time (0: all at once).
func inFlightCap(want int) func(t *testing.T, p Policy) {
	return func(t *testing.T, p Policy) {
		const n = 12
		raw := newGatedInner()
		s := NewStack(raw, LatencyModel{}, nil, nil, p)
		var wg sync.WaitGroup
		defer wg.Wait()
		defer close(raw.gate)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := s.Fetcher.Fetch(NewGet(fmt.Sprintf("http://one.example/p%d", i))); err != nil {
					t.Error(err)
				}
			}(i)
		}
		running := want
		if want == 0 {
			running = n
		}
		for i := 0; i < running; i++ {
			select {
			case <-raw.started:
			case <-time.After(5 * time.Second):
				t.Fatalf("%d fetches in flight, want %d", i, running)
			}
		}
		select {
		case u := <-raw.started:
			t.Errorf("%s started with %d already in flight", u, running)
		case <-time.After(20 * time.Millisecond):
		}
		if want > 0 && s.Stats.PeakInFlight() != int64(want) {
			t.Errorf("peak in flight = %d, want %d", s.Stats.PeakInFlight(), want)
		}
	}
}

// noShed: behind a host's one busy slot, every waiting fetch queues and
// none is shed.
func noShed(t *testing.T, p Policy) {
	const n = 8
	raw := newGatedInner()
	s := NewStack(raw, LatencyModel{}, nil, nil, p)
	var returned atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Fetcher.Fetch(NewGet(fmt.Sprintf("http://one.example/p%d", i))); err != nil {
				t.Error(err)
			}
			returned.Add(1)
		}(i)
	}
	<-raw.started
	time.Sleep(20 * time.Millisecond) // a shed would return at once
	if got := returned.Load(); got != 0 {
		t.Errorf("%d fetches returned while the host's slot was busy", got)
	}
	close(raw.gate)
	wg.Wait()
	if s.Stats.BulkheadSheds() != 0 {
		t.Errorf("bulkhead sheds = %d, want 0", s.Stats.BulkheadSheds())
	}
}

// TestStackFollowerOutlivesCancelledLeader: query A leads a held fetch, query
// B joins it, and then A's request is cancelled. A failure that follows from
// A's cancellation is A's alone: B fetches the page for itself, billed as
// B's page and not as a Deduped, and nothing is memoized. A fetch that
// succeeds all the same is B's page too, and the network is reached once.
func TestStackFollowerOutlivesCancelledLeader(t *testing.T) {
	for _, succeeds := range []bool{false, true} {
		t.Run(fmt.Sprintf("heldFetchSucceeds=%v", succeeds), func(t *testing.T) {
			const url = "http://h.example/p"
			started, release := make(chan struct{}), make(chan struct{})
			var network atomic.Int64
			raw := FetcherFunc(func(req *Request) (*Response, error) {
				if network.Add(1) == 1 {
					close(started)
					if succeeds {
						<-release
					} else {
						<-req.Context().Done()
						return nil, req.Context().Err()
					}
				}
				return HTML(req.URL, "<html><body>ok</body></html>"), nil
			})
			s := NewStack(raw, LatencyModel{}, nil, nil, Policy{})
			qa, qb := s.NewQuery(), s.NewQuery()
			actx, cancelA := context.WithCancel(WithQuery(context.Background(), qa))
			defer cancelA()
			aErr := make(chan error, 1)
			go func() {
				_, err := s.Fetcher.Fetch(NewGet(url).WithContext(actx))
				aErr <- err
			}()
			<-started
			bErr := make(chan error, 1)
			go func() {
				_, err := s.Fetcher.Fetch(NewGet(url).WithContext(WithQuery(context.Background(), qb)))
				bErr <- err
			}()
			time.Sleep(20 * time.Millisecond) // let B join A's flight
			cancelA()
			if succeeds {
				close(release)
			}
			err := <-aErr
			if !succeeds && !errors.Is(err, context.Canceled) {
				t.Errorf("A got %v, want context.Canceled", err)
			}
			if err := <-bErr; err != nil {
				t.Fatalf("B, whose request was never cancelled, got %v", err)
			}
			wantNetwork, wantPages, wantDeduped := int64(2), int64(1), int64(0)
			if succeeds {
				wantNetwork, wantPages, wantDeduped = 1, 0, 1
			}
			if network.Load() != wantNetwork || qb.Stats.Pages() != wantPages || qb.Stats.Deduped() != wantDeduped {
				t.Errorf("network %d; B billed %d pages and %d deduped; want %d, %d and %d",
					network.Load(), qb.Stats.Pages(), qb.Stats.Deduped(), wantNetwork, wantPages, wantDeduped)
			}
			// A's memo replays nothing: a live fetch on A's query reaches inner.
			var probed atomic.Int64
			probe := WithOutageMemo(FetcherFunc(func(req *Request) (*Response, error) {
				probed.Add(1)
				return HTML(req.URL, "<html></html>"), nil
			}))
			if _, err := probe.Fetch(NewGet(url).WithContext(WithQuery(context.Background(), qa))); err != nil || probed.Load() != 1 {
				t.Errorf("A's memo replayed %v instead of fetching", err)
			}
		})
	}
}
