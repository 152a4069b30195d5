package web

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingInner is a test fetcher that tracks total calls and, per host,
// the current and peak number of concurrently executing fetches.
type countingInner struct {
	mu      sync.Mutex
	calls   int64
	cur     map[string]int
	peak    map[string]int
	delay   time.Duration
	failAll bool
}

func newCountingInner(delay time.Duration) *countingInner {
	return &countingInner{cur: make(map[string]int), peak: make(map[string]int), delay: delay}
}

func (c *countingInner) Fetch(req *Request) (*Response, error) {
	host := hostOf(req.URL)
	c.mu.Lock()
	c.calls++
	c.cur[host]++
	if c.cur[host] > c.peak[host] {
		c.peak[host] = c.cur[host]
	}
	c.mu.Unlock()
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	c.mu.Lock()
	c.cur[host]--
	c.mu.Unlock()
	if c.failAll {
		return nil, errors.New("inner failure")
	}
	return HTML(req.URL, "<html><body>"+req.URL+"</body></html>"), nil
}

func (c *countingInner) Calls() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

func (c *countingInner) Peak(host string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peak[host]
}

func TestSingleflightCollapsesConcurrentIdentical(t *testing.T) {
	inner := newCountingInner(20 * time.Millisecond)
	stats := &Stats{}
	f := WithSingleflight(inner, stats)
	req := NewGet("http://site.example/page")

	const n = 16
	var wg sync.WaitGroup
	bodies := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := f.Fetch(req)
			errs[i] = err
			if resp != nil {
				bodies[i] = string(resp.Body)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("fetch %d: %v", i, errs[i])
		}
		if bodies[i] != bodies[0] {
			t.Fatalf("fetch %d saw a different body", i)
		}
	}
	if got := inner.Calls(); got != 1 {
		t.Errorf("inner fetched %d times, want 1", got)
	}
	if got := stats.Deduped(); got != n-1 {
		t.Errorf("deduped = %d, want %d", got, n-1)
	}
}

func TestSingleflightDistinctRequestsNotCollapsed(t *testing.T) {
	inner := newCountingInner(5 * time.Millisecond)
	stats := &Stats{}
	f := WithSingleflight(inner, stats)

	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := f.Fetch(NewGet(fmt.Sprintf("http://site.example/page%d", i))); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if got := inner.Calls(); got != n {
		t.Errorf("inner fetched %d times, want %d", got, n)
	}
	if got := stats.Deduped(); got != 0 {
		t.Errorf("deduped = %d, want 0", got)
	}
}

// TestSingleflightSequentialRefetches pins that deduplication only spans
// in-flight requests: a later identical fetch executes again (the cache,
// not singleflight, is responsible for cross-time reuse).
func TestSingleflightSequentialRefetches(t *testing.T) {
	inner := newCountingInner(0)
	f := WithSingleflight(inner, nil)
	req := NewGet("http://site.example/page")
	for i := 0; i < 3; i++ {
		if _, err := f.Fetch(req); err != nil {
			t.Fatal(err)
		}
	}
	if got := inner.Calls(); got != 3 {
		t.Errorf("inner fetched %d times, want 3", got)
	}
}

func TestSingleflightErrorSharedByFollowers(t *testing.T) {
	inner := newCountingInner(20 * time.Millisecond)
	inner.failAll = true
	f := WithSingleflight(inner, nil)
	req := NewGet("http://down.example/")

	const n = 6
	var wg sync.WaitGroup
	var errCount atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := f.Fetch(req); err != nil {
				errCount.Add(1)
			}
		}()
	}
	wg.Wait()
	if errCount.Load() != n {
		t.Errorf("%d of %d callers saw the error", errCount.Load(), n)
	}
	if got := inner.Calls(); got == 0 || got > n {
		t.Errorf("inner calls = %d", got)
	}
}

// TestHostLimitCapRespected drives many concurrent fetches at two hosts
// through per-host caps of varying width and asserts the inner fetcher
// never sees more than the cap in flight per host — while other hosts
// proceed independently.
func TestHostLimitCapRespected(t *testing.T) {
	for _, cap := range []int{1, 2, 4} {
		cap := cap
		t.Run(fmt.Sprintf("cap=%d", cap), func(t *testing.T) {
			inner := newCountingInner(5 * time.Millisecond)
			stats := &Stats{}
			f := WithBulkhead(inner, cap, 0, stats)

			const perHost = 12
			var wg sync.WaitGroup
			for i := 0; i < perHost; i++ {
				for _, host := range []string{"a.example", "b.example"} {
					wg.Add(1)
					go func(host string, i int) {
						defer wg.Done()
						if _, err := f.Fetch(NewGet(fmt.Sprintf("http://%s/p%d", host, i))); err != nil {
							t.Error(err)
						}
					}(host, i)
				}
			}
			wg.Wait()
			for _, host := range []string{"a.example", "b.example"} {
				if peak := inner.Peak(host); peak > cap {
					t.Errorf("%s: %d concurrent fetches, cap %d", host, peak, cap)
				}
			}
			if got := inner.Calls(); got != 2*perHost {
				t.Errorf("inner calls = %d, want %d", got, 2*perHost)
			}
			if stats.PeakInFlight() == 0 || stats.PeakInFlight() > int64(2*cap) {
				t.Errorf("peak in-flight = %d with two hosts capped at %d", stats.PeakInFlight(), cap)
			}
			if cap == 1 && stats.LimiterWait() == 0 {
				t.Error("no limiter wait recorded despite 12 fetches through a cap of 1")
			}
		})
	}
}

// TestHostLimitFIFOFairness pins the FIFO-ish service order: with a cap
// of 1, fetches that queued earlier execute earlier (Go wakes blocked
// channel senders in arrival order, so no waiter starves).
func TestHostLimitFIFOFairness(t *testing.T) {
	var mu sync.Mutex
	var order []int
	inner := FetcherFunc(func(req *Request) (*Response, error) {
		var i int
		fmt.Sscanf(req.Param("i"), "%d", &i)
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
		time.Sleep(2 * time.Millisecond)
		return HTML(req.URL, "<html></html>"), nil
	})
	f := WithBulkhead(inner, 1, 0, nil)

	const n = 8
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // occupy the single slot so the others must queue
		defer wg.Done()
		<-release
		f.Fetch(NewGet("http://one.example/?i=-1"))
	}()
	close(release)
	time.Sleep(5 * time.Millisecond)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f.Fetch(NewGet(fmt.Sprintf("http://one.example/?i=%d", i)))
		}(i)
		time.Sleep(5 * time.Millisecond) // stagger arrivals
	}
	wg.Wait()
	if len(order) != n+1 {
		t.Fatalf("%d fetches recorded, want %d", len(order), n+1)
	}
	for i := 0; i < n; i++ {
		if order[i+1] != i {
			t.Fatalf("service order %v not FIFO", order)
		}
	}
}

// TestHostLimitDisabled pins that a non-positive cap is a no-op wrapper.
func TestHostLimitDisabled(t *testing.T) {
	inner := newCountingInner(0)
	if f := WithBulkhead(inner, 0, 0, nil); f != Fetcher(inner) {
		t.Error("cap 0 should return inner unwrapped")
	}
	if f := WithBulkhead(inner, -1, 0, nil); f != Fetcher(inner) {
		t.Error("negative cap should return inner unwrapped")
	}
}

// gatedInner blocks every fetch on a gate channel so tests can hold host
// slots occupied deterministically.
type gatedInner struct {
	gate    chan struct{}
	started chan string // receives the URL as each fetch begins executing
}

func newGatedInner() *gatedInner {
	return &gatedInner{gate: make(chan struct{}), started: make(chan string, 64)}
}

func (g *gatedInner) Fetch(req *Request) (*Response, error) {
	g.started <- req.URL
	<-g.gate
	return HTML(req.URL, "<html></html>"), nil
}

// TestBulkheadShedsWhenSaturated drives a perHost=1, maxQueue=1 bulkhead
// to saturation: one fetch executing, one queued, and the third must shed
// immediately with an outage-classified ErrHostSaturated — while another
// host proceeds untouched.
func TestBulkheadShedsWhenSaturated(t *testing.T) {
	inner := newGatedInner()
	stats := &Stats{}
	f := WithBulkhead(inner, 1, 1, stats)

	// Occupy the single slot.
	first := make(chan error, 1)
	go func() {
		_, err := f.Fetch(NewGet("http://one.example/a"))
		first <- err
	}()
	<-inner.started

	// Fill the wait queue.
	second := make(chan error, 1)
	go func() {
		_, err := f.Fetch(NewGet("http://one.example/b"))
		second <- err
	}()
	// The queued fetch never reaches inner, so give it a moment to
	// register in the wait queue before saturating it. If the third
	// fetch were to arrive before the second queued, it would queue
	// instead of shed — the timeout below catches that (rare) schedule.
	time.Sleep(50 * time.Millisecond)
	third := make(chan error, 1)
	go func() {
		_, err := f.Fetch(NewGet("http://one.example/c"))
		third <- err
	}()
	var shedErr error
	select {
	case shedErr = <-third:
	case <-time.After(2 * time.Second):
		t.Fatal("third fetch neither shed nor returned (queued against a closed gate?)")
	}
	if shedErr == nil {
		t.Fatal("third fetch completed against a closed gate")
	}
	if !errors.Is(shedErr, ErrHostSaturated) {
		t.Fatalf("shed error %v does not match ErrHostSaturated", shedErr)
	}
	if !IsOutage(shedErr) {
		t.Fatalf("shed error %v is not outage-classified", shedErr)
	}
	if host := FailingHost(shedErr); host != "one.example" {
		t.Fatalf("shed attributed to %q, want one.example", host)
	}
	if got := stats.BulkheadSheds(); got < 1 {
		t.Fatalf("bulkhead sheds = %d, want >= 1", got)
	}

	// A different host is isolated from the saturation.
	otherDone := make(chan error, 1)
	go func() {
		_, err := f.Fetch(NewGet("http://two.example/x"))
		otherDone <- err
	}()
	<-inner.started // two.example reached inner despite one.example being full

	// Open the gate: the occupant, the queued fetch and the other host
	// all complete.
	close(inner.gate)
	for name, ch := range map[string]chan error{"first": first, "second": second, "other": otherDone} {
		select {
		case err := <-ch:
			if err != nil {
				t.Errorf("%s fetch failed after gate opened: %v", name, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s fetch never completed", name)
		}
	}
}

// TestBulkheadQueuedFetchHonorsCancellation pins that a fetch parked in
// the bulkhead's wait queue unblocks when its context is cancelled.
func TestBulkheadQueuedFetchHonorsCancellation(t *testing.T) {
	inner := newGatedInner()
	f := WithBulkhead(inner, 1, 0, nil)

	go f.Fetch(NewGet("http://one.example/a")) // occupies the slot forever
	<-inner.started

	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() {
		_, err := f.Fetch(NewGet("http://one.example/b").WithContext(ctx))
		queued <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it queue
	cancel()
	select {
	case err := <-queued:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled queued fetch never returned")
	}
	close(inner.gate)
}

// TestBulkheadUnboundedQueueNeverSheds: maxQueue=0 queues without bound
// and never sheds.
func TestBulkheadUnboundedQueueNeverSheds(t *testing.T) {
	inner := newCountingInner(time.Millisecond)
	stats := &Stats{}
	f := WithBulkhead(inner, 1, 0, stats)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := f.Fetch(NewGet(fmt.Sprintf("http://one.example/p%d", i))); err != nil {
				t.Errorf("fetch %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if stats.BulkheadSheds() != 0 {
		t.Errorf("unbounded queue shed %d fetches", stats.BulkheadSheds())
	}
	if inner.Calls() != 32 {
		t.Errorf("inner calls = %d, want 32", inner.Calls())
	}
}

// TestSingleflightUnderSharedStats hammers singleflight + limiter + cache
// sharing one Stats from many goroutines; run under -race this is the
// middleware-stack race test.
func TestSingleflightUnderSharedStats(t *testing.T) {
	inner := newCountingInner(time.Millisecond)
	stats := &Stats{}
	cache := NewCache()
	f := WithCacheLookup(WithSingleflight(WithCacheFill(WithBulkhead(Counting(inner, stats), 2, 0, stats), cache), stats), cache)

	var wg sync.WaitGroup
	for g := 0; g < 24; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				url := fmt.Sprintf("http://h%d.example/p%d", g%3, i%4)
				if _, err := f.Fetch(NewGet(url)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// 3 hosts × 4 pages = 12 distinct requests end up cached, each fetched
	// exactly once: the fill happens inside the flight, so there is no
	// window in which a page is neither in flight nor in the cache.
	if cache.Len() != 12 {
		t.Errorf("cache holds %d entries, want 12", cache.Len())
	}
	if p := stats.Pages(); p != 12 {
		t.Errorf("pages = %d, want 12", p)
	}
}

// TestFillVisibleBeforeFlightForgotten replays, step by step, the
// interleaving that used to fetch a page twice: B misses the cache, A then
// fetches and stores the page and its flight ends, and only then does B
// reach singleflight. B must find A's page, not start a second fetch.
func TestFillVisibleBeforeFlightForgotten(t *testing.T) {
	inner := newCountingInner(0)
	stats := &Stats{}
	cache := NewCache()
	flight := WithSingleflight(WithCacheFill(Counting(inner, stats), cache), stats)
	bMissed, aDone := make(chan struct{}), make(chan struct{})
	var held atomic.Bool // B is the first request to get past the lookup
	f := WithCacheLookup(FetcherFunc(func(req *Request) (*Response, error) {
		if held.CompareAndSwap(false, true) {
			close(bMissed)
			<-aDone
		}
		return flight.Fetch(req)
	}), cache)

	const url = "http://h.example/p"
	bErr := make(chan error, 1)
	go func() {
		_, err := f.Fetch(NewGet(url))
		bErr <- err
	}()
	<-bMissed
	if _, err := f.Fetch(NewGet(url)); err != nil {
		t.Fatal(err)
	}
	close(aDone)
	if err := <-bErr; err != nil {
		t.Fatal(err)
	}
	if inner.Calls() != 1 || cache.Hits() != 1 || cache.Misses() != 1 || stats.Deduped() != 0 {
		t.Errorf("network=%d hits=%d misses=%d deduped=%d, want 1 1 1 0",
			inner.Calls(), cache.Hits(), cache.Misses(), stats.Deduped())
	}
}

// TestSingleflightWaitHonoursContext: a follower whose own request is
// cancelled stops waiting at once; the flight goes on and its page still
// reaches the follower that stayed.
func TestSingleflightWaitHonoursContext(t *testing.T) {
	inner := newGatedInner()
	stats := &Stats{}
	f := WithSingleflight(inner, stats)
	const url = "http://h.example/p"
	lead, stayed := make(chan error, 1), make(chan error, 1)
	go func() {
		_, err := f.Fetch(NewGet(url))
		lead <- err
	}()
	<-inner.started
	ctx, cancel := context.WithCancel(context.Background())
	gaveUp := make(chan error, 1)
	go func() {
		_, err := f.Fetch(NewGet(url).WithContext(ctx))
		gaveUp <- err
	}()
	go func() {
		_, err := f.Fetch(NewGet(url))
		stayed <- err
	}()
	time.Sleep(20 * time.Millisecond) // let both followers join the flight
	cancel()
	select {
	case err := <-gaveUp:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled follower got %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a cancelled follower kept waiting for the flight")
	}
	close(inner.gate)
	if err := <-lead; err != nil {
		t.Fatal(err)
	}
	if err := <-stayed; err != nil {
		t.Fatal(err)
	}
	if n := len(inner.started); n != 0 || stats.Deduped() != 1 {
		t.Errorf("%d more fetches and %d deduped, want 0 and 1: the follower that stayed takes the flight's page", n, stats.Deduped())
	}
}

// loadOf is a kept-page load that counts its calls and returns page, err.
func loadOf(calls *atomic.Int64, page any, err error) func() (any, error) {
	return func() (any, error) {
		calls.Add(1)
		return page, err
	}
}

// TestQueryVisitHandsOverAFailedKeep: visits that wait on a query's keeping
// load are handed its page when it succeeds; when it fails, the next visit
// — one that was waiting or one that comes later — loads and keeps in its
// place. Whichever way the goroutines interleave, the outcome is the same.
func TestQueryVisitHandsOverAFailedKeep(t *testing.T) {
	ctx := context.Background()
	q := &Query{}
	var loads atomic.Int64
	if p, reused, err := q.Load(ctx, "k", loadOf(&loads, "first", nil)); p != "first" || reused || err != nil {
		t.Fatalf("first visit: page %v, reused %v, err %v; want its own load", p, reused, err)
	}
	if p, reused, err := q.Load(ctx, "k", loadOf(&loads, nil, errors.New("down"))); p != nil || reused || err == nil {
		t.Fatalf("second visit: page %v, reused %v, err %v; want its own failed load, the first kept nothing", p, reused, err)
	}
	// The keeping load after the failed one is held while a visit arrives.
	started, release := make(chan struct{}), make(chan struct{})
	kept := make(chan any, 1)
	go func() {
		p, _, _ := q.Load(ctx, "k", func() (any, error) {
			close(started)
			<-release
			loads.Add(1)
			return "page", nil
		})
		kept <- p
	}()
	<-started
	const waiters = 4
	got := make(chan any, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			p, reused, err := q.Load(ctx, "k", loadOf(&loads, "own", nil))
			if !reused || err != nil {
				t.Errorf("a visit after the keeping load: reused %v, err %v", reused, err)
			}
			got <- p
		}()
	}
	close(release)
	if p := <-kept; p != "page" {
		t.Fatalf("visit after a failed keeping load got %v, want its own load", p)
	}
	for i := 0; i < waiters; i++ {
		if p := <-got; p != "page" {
			t.Errorf("a visit after the keeping load got %v", p)
		}
	}
	if loads.Load() != 3 || q.Stats.Reused() != waiters {
		t.Errorf("loads = %d, Reused = %d; want 3 and %d", loads.Load(), q.Stats.Reused(), waiters)
	}
	var none *Query
	for i := 0; i < 2; i++ {
		if p, reused, _ := none.Load(ctx, "k", loadOf(&loads, "own", nil)); p != "own" || reused {
			t.Errorf("a nil query: page %v, reused %v; want its own load", p, reused)
		}
	}
	if loads.Load() != 5 {
		t.Errorf("a nil query kept a page: %d loads, want 5", loads.Load())
	}
}

// TestQueryLoadWaitHonoursContext: a visit waiting on the keeping load
// returns its context's error at once when cancelled; the load goes on, and
// its page is kept for the visits that stayed and those that come later.
func TestQueryLoadWaitHonoursContext(t *testing.T) {
	bg := context.Background()
	q := &Query{}
	var loads atomic.Int64
	q.Load(bg, "k", loadOf(&loads, "first", nil))
	started, release := make(chan struct{}), make(chan struct{})
	keeper := make(chan any, 1)
	go func() {
		p, _, _ := q.Load(bg, "k", func() (any, error) {
			close(started)
			<-release
			return "page", nil
		})
		keeper <- p
	}()
	<-started
	ctx, cancel := context.WithCancel(bg)
	gaveUp, stayed := make(chan error, 1), make(chan any, 1)
	go func() {
		_, _, err := q.Load(ctx, "k", loadOf(&loads, "own", nil))
		gaveUp <- err
	}()
	go func() {
		p, _, _ := q.Load(bg, "k", loadOf(&loads, "own", nil))
		stayed <- p
	}()
	time.Sleep(20 * time.Millisecond) // let both visits wait
	cancel()
	select {
	case err := <-gaveUp:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled visit got %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a cancelled visit kept waiting for the keeping load")
	}
	close(release)
	if p := <-keeper; p != "page" {
		t.Fatalf("keeping load returned %v", p)
	}
	if p := <-stayed; p != "page" {
		t.Errorf("the visit that stayed got %v, want the kept page", p)
	}
	if p, reused, _ := q.Load(bg, "k", loadOf(&loads, "own", nil)); p != "page" || !reused {
		t.Errorf("a later visit got %v (reused %v), want the kept page", p, reused)
	}
	if loads.Load() != 1 || q.Stats.Reused() != 2 {
		t.Errorf("loads = %d, Reused = %d; want 1 (the first visit's) and 2", loads.Load(), q.Stats.Reused())
	}
}
