package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"webbase/internal/sites"
	"webbase/internal/web"
)

// runTogether releases n goroutines at once, each running one of the
// queries (round-robin), and returns their stats in goroutine order. Any
// query error fails the test.
func runTogether(t *testing.T, wb *Webbase, n int, queries ...string) []*QueryStats {
	t.Helper()
	out := make([]*QueryStats, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			_, out[g], errs[g] = wb.QueryString(queries[g%len(queries)])
		}(g)
	}
	close(start)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestConcurrentQueriesBilledAlone: a query is billed its own page
// accesses, not its neighbours'. Eight identical warm queries running at
// once each report exactly what the same query reports running alone.
func TestConcurrentQueriesBilledAlone(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			wb, err := New(Config{Fetcher: sites.BuildWorld().Server, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := wb.QueryString(wideCarQuery); err != nil { // warm the cache
				t.Fatal(err)
			}
			_, solo, err := wb.QueryString(wideCarQuery)
			if err != nil {
				t.Fatal(err)
			}
			if solo.CacheHits == 0 || solo.Pages != 0 {
				t.Fatalf("warm solo query: pages=%d cache-hits=%d", solo.Pages, solo.CacheHits)
			}
			for g, qs := range runTogether(t, wb, 8, wideCarQuery) {
				if qs.Pages != solo.Pages || qs.CacheHits != solo.CacheHits || qs.Bytes != solo.Bytes {
					t.Errorf("query %d of 8: pages=%d cache-hits=%d bytes=%d, alone it costs pages=%d cache-hits=%d bytes=%d",
						g, qs.Pages, qs.CacheHits, qs.Bytes, solo.Pages, solo.CacheHits, solo.Bytes)
				}
			}
		})
	}
}

// flakyHost injects Flaky's deterministic failures into one host only.
type flakyHost struct {
	host         string
	flaky, inner web.Fetcher
}

func (f *flakyHost) Fetch(req *web.Request) (*web.Response, error) {
	if web.HostOf(req.URL) == f.host {
		return f.flaky.Fetch(req)
	}
	return f.inner.Fetch(req)
}

// TestConcurrentBillConservation: every count lands on exactly one bill.
// Over concurrent rounds that are cold, then expired with the whole Web
// down (stale serves), then expired again and refetched, then warm — one
// host flaky with retries throughout — the per-query bills sum to the
// rise of the lifetime counters and of the metrics registry.
func TestConcurrentBillConservation(t *testing.T) {
	clk := newManualClock()
	world := sites.BuildWorld().Server
	sw := &switchableFetcher{inner: &flakyHost{host: sites.NewsdayHost, inner: world,
		flaky: &web.Flaky{Inner: world, FailEvery: 3}}}
	wb, err := New(Config{Fetcher: sw, Workers: 4, Retries: 8,
		Clock: clk.Now, CacheMaxAge: time.Minute, AllowStale: true})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		wideCarQuery,
		"SELECT Make, Model, Year, Price WHERE Make = 'ford' AND Model = 'escort'",
		"SELECT Make, Model, Safety WHERE Make = 'honda'",
	}
	var pages, hits, stale, retries int64
	round := func(name string) {
		t.Helper()
		before := pages + hits + stale
		for _, qs := range runTogether(t, wb, 9, queries...) {
			pages += qs.Pages
			hits += qs.CacheHits
			stale += qs.StaleServed
			retries += qs.Retries
		}
		if pages+hits+stale == before {
			t.Fatalf("%s round was billed no page access at all", name)
		}
	}
	round("cold")
	clk.Advance(2 * time.Minute) // every cached page expires
	sw.down.Store(true)
	round("stale")
	sw.down.Store(false)
	clk.Advance(2 * time.Minute)
	round("refetch")
	round("warm")
	if pages == 0 || hits == 0 || stale == 0 || retries == 0 {
		t.Fatalf("the run missed a path: pages=%d hits=%d stale=%d retries=%d", pages, hits, stale, retries)
	}

	counters := wb.Metrics().Snapshot().Counters
	for _, c := range []struct {
		name             string
		billed, lifetime int64
		metric           string
	}{
		{"Pages", pages, wb.Stats().Pages(), "pages_fetched_total"},
		{"CacheHits", hits, wb.Cache().Hits(), "cache_hits_total"},
		{"StaleServed", stale, wb.Cache().Stale(), "stale_served_total"},
		{"Retries", retries, wb.Stats().Retries(), "retries_total"},
	} {
		if c.billed != c.lifetime || c.billed != counters[c.metric] {
			t.Errorf("%s: queries were billed %d, lifetime counter rose %d, %s rose %d",
				c.name, c.billed, c.lifetime, c.metric, counters[c.metric])
		}
	}
}

// TestStrictFailureStillBilledInMetrics: a query that fails pays for what
// it fetched before failing. A strict query over a flaky Web dies on the
// first exhausted retry ladder; the pages and retries it spent reach the
// registry exactly as they reach the lifetime Stats.
func TestStrictFailureStillBilledInMetrics(t *testing.T) {
	world := sites.BuildWorld().Server
	wb, err := New(Config{Fetcher: &web.Flaky{Inner: world, FailEvery: 3},
		Workers: 4, Retries: 1, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := wb.QueryString(wideCarQuery); err == nil {
		t.Fatal("strict query over a web failing every third attempt, retried once, succeeded")
	}
	if wb.Stats().Pages() == 0 || wb.Stats().Retries() == 0 {
		t.Fatalf("the failed query fetched nothing worth billing: pages=%d retries=%d",
			wb.Stats().Pages(), wb.Stats().Retries())
	}
	counters := wb.Metrics().Snapshot().Counters
	if got, want := counters["pages_fetched_total"], wb.Stats().Pages(); got != want {
		t.Errorf("pages_fetched_total = %d, the failed query fetched %d", got, want)
	}
	if got, want := counters["retries_total"], wb.Stats().Retries(); got != want {
		t.Errorf("retries_total = %d, the failed query retried %d", got, want)
	}
	if counters["queries_failed_total"] != 1 || counters["queries_total"] != 0 {
		t.Errorf("queries_failed_total=%d queries_total=%d, want 1 and 0",
			counters["queries_failed_total"], counters["queries_total"])
	}
}
