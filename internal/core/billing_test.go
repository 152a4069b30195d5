package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"webbase/internal/prune"
	"webbase/internal/sites"
	"webbase/internal/trace"
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
// rise of the lifetime counters and of the metrics registry, row by row
// of the bill table.
func TestConcurrentBillConservation(t *testing.T) {
	clk := newManualClock()
	world := sites.BuildWorld().Server
	sw := &switchableFetcher{inner: &flakyHost{host: sites.NewsdayHost, inner: world,
		flaky: &web.Flaky{Inner: world, FailEvery: 3}}}
	wb, err := New(Config{
		Fetcher: sw,
		Workers: 4,
		Clock:   clk.Now,
		Fetch:   web.Policy{Retries: 8, CacheMaxAge: time.Minute, AllowStale: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		wideCarQuery,
		"SELECT Make, Model, Year, Price WHERE Make = 'ford' AND Model = 'escort'",
		"SELECT Make, Model, Safety WHERE Make = 'honda'",
	}
	var pages, hits, stale, retries int64
	billed := make([]int64, len(bill))
	round := func(name string) {
		t.Helper()
		before := pages + hits + stale
		for _, qs := range runTogether(t, wb, 9, queries...) {
			pages += qs.Pages
			hits += qs.CacheHits
			stale += qs.StaleServed
			retries += qs.Retries
			v := reflect.ValueOf(qs).Elem()
			for i, r := range bill {
				billed[i] += v.Field(r.field).Int()
			}
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

	page := metricsPage(t, wb)
	for _, c := range []struct {
		name             string
		billed, lifetime int64
		metric           string
	}{
		{"Pages", pages, wb.Stats().Get(web.Pages), "pages_fetched_total"},
		{"CacheHits", hits, wb.Cache().Hits(), "cache_hits_total"},
		{"StaleServed", stale, wb.Cache().Stale(), "stale_served_total"},
		{"Retries", retries, wb.Stats().Get(web.Retries), "retries_total"},
	} {
		if c.billed != c.lifetime || float64(c.billed) != page[c.metric] {
			t.Errorf("%s: queries were billed %d, lifetime counter rose %d, %s rose %v",
				c.name, c.billed, c.lifetime, c.metric, page[c.metric])
		}
	}
	for i, r := range bill {
		if r.counter != notBilled && billed[i] != wb.Stats().Get(r.counter) {
			t.Errorf("%s: queries were billed %d, lifetime counter rose %d", r.key, billed[i], wb.Stats().Get(r.counter))
		}
		if r.metric != nil && float64(billed[i]) != page[r.metric.Name()] {
			t.Errorf("%s: queries were billed %d, %s rose %v", r.key, billed[i], r.metric.Name(), page[r.metric.Name()])
		}
	}
}

// TestBillTableCoversEveryCount: every web.Counter and every QueryStats
// field but PrunedByReason has exactly one row of the bill, no key or
// metric names two rows, and every row's metric says what it counts.
func TestBillTableCoversEveryCount(t *testing.T) {
	counters := make(map[web.Counter]int)
	fields := make(map[int]int)
	keys := make(map[string]int)
	metrics := make(map[string]int)
	for _, r := range bill {
		if r.counter != notBilled {
			counters[r.counter]++
		}
		fields[r.field]++
		keys[r.key]++
		if r.metric != nil {
			metrics[r.metric.Name()]++
			if r.metric.Help() == "" {
				t.Errorf("%s's metric %s has no help text", r.key, r.metric.Name())
			}
		}
	}
	for c := web.Counter(0); c < web.NumCounters; c++ {
		if counters[c] != 1 {
			t.Errorf("web.Counter %d has %d rows, want 1", c, counters[c])
		}
	}
	st := reflect.TypeOf(QueryStats{})
	for i := 0; i < st.NumField(); i++ {
		if name := st.Field(i).Name; name != "PrunedByReason" && fields[i] != 1 {
			t.Errorf("QueryStats.%s has %d rows, want 1", name, fields[i])
		}
	}
	for _, m := range []map[string]int{keys, metrics} {
		for name, n := range m {
			if n != 1 {
				t.Errorf("%q names %d rows", name, n)
			}
		}
	}
}

// TestFailedQueryStillBilledInMetrics: a query that fails pays for what
// it fetched before failing. With the blue book down, every maximal object
// of the query dies on its retried blue-book look-up, after fetching the
// listings it would have priced; the pages and retries it spent reach the
// registry exactly as they reach the lifetime Stats.
func TestFailedQueryStillBilledInMetrics(t *testing.T) {
	wb, err := New(Config{
		Fetcher: downHost(sites.KellysHost, sites.BuildWorld().Server),
		Workers: 4,
		Fetch:   web.Policy{Retries: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := wb.QueryString(wideCarQuery); err == nil {
		t.Fatal("a query whose every object needs the dead blue book succeeded")
	}
	if wb.Stats().Get(web.Pages) == 0 || wb.Stats().Get(web.Retries) == 0 {
		t.Fatalf("the failed query fetched nothing worth billing: pages=%d retries=%d",
			wb.Stats().Get(web.Pages), wb.Stats().Get(web.Retries))
	}
	counters := metricsPage(t, wb)
	if got, want := counters["pages_fetched_total"], float64(wb.Stats().Get(web.Pages)); got != want {
		t.Errorf("pages_fetched_total = %v, the failed query fetched %v", got, want)
	}
	if got, want := counters["retries_total"], float64(wb.Stats().Get(web.Retries)); got != want {
		t.Errorf("retries_total = %v, the failed query retried %v", got, want)
	}
	if counters["queries_failed_total"] != 1 || counters["queries_total"] != 0 {
		t.Errorf("queries_failed_total=%v queries_total=%v, want 1 and 0",
			counters["queries_failed_total"], counters["queries_total"])
	}
}

// metricsPage writes wb's metrics page, the one GET /metrics serves, and
// parses it back into series → value; a page that does not parse back
// fails the test.
func metricsPage(t *testing.T, wb *Webbase) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := wb.Metrics().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	page, err := trace.ParseText(b.String())
	if err != nil {
		t.Fatalf("the metrics page does not parse back: %v\n%s", err, b.String())
	}
	return page
}

// TestObserveAllocatesNothing: folding a query's bill into the registry
// is index arithmetic on declared series — no name is built, no series
// created — with pruning off, and with pruning on and every reason
// counted.
func TestObserveAllocatesNothing(t *testing.T) {
	for _, pruning := range []bool{false, true} {
		wb, err := New(Config{Fetcher: sites.BuildWorld().Server, Prune: pruning})
		if err != nil {
			t.Fatal(err)
		}
		qs := &QueryStats{Pages: 12, Bytes: 4096, CacheHits: 3, Retries: 1, PeakInFlight: 4,
			DegradedObjects: 1, DriftDetected: 1, Elapsed: 20 * time.Millisecond}
		if pruning {
			qs.PrunedFetches = 3
			qs.PrunedByReason = map[string]int64{prune.ReasonUnsatWhere: 2, prune.ReasonLimit: 1}
		}
		for _, failed := range []bool{false, true} {
			if n := testing.AllocsPerRun(100, func() { wb.observe(qs, failed) }); n != 0 {
				t.Errorf("pruning=%v failed=%v: observe allocates %v times per call", pruning, failed, n)
			}
		}
		if pruning && metricsPage(t, wb)[`fetches_pruned_total{reason="unsat-where"}`] == 0 {
			t.Error("the pruned reasons were not observed")
		}
	}
}
