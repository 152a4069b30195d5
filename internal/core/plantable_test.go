package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"webbase/internal/sites"
	"webbase/internal/web"
)

// countingFetcher counts the requests that reach the Web.
type countingFetcher struct {
	inner web.Fetcher
	calls atomic.Int64
}

func (c *countingFetcher) Fetch(req *web.Request) (*web.Response, error) {
	c.calls.Add(1)
	return c.inner.Fetch(req)
}

// TestPlanTableAnswersAsFresh: a query whose shape an earlier query
// compiled (the same conditions on the same attributes, other constants)
// answers, bills and fetches exactly as it does on a fresh webbase, which
// compiles the shape itself. At Workers 8 the bill's cache hits, dedups
// and reuses may trade places, and only their sum is compared. One pair of queries per deck class: a T1
// lookup, a T2 blue-book join and a T3 headline query. The page cache is
// cleared between the two, so the second pays for its own pages.
func TestPlanTableAnswersAsFresh(t *testing.T) {
	pairs := []struct{ class, first, second string }{
		{"T1",
			"SELECT Make, Model, Year, Price WHERE Make='bmw' AND Model='325i'",
			"SELECT Make, Model, Year, Price WHERE Make='ford' AND Model='escort'"},
		{"T2",
			"SELECT Make, Model, Year, Price, BBPrice WHERE Make='bmw' AND Model='325i' AND Condition='good' AND Price < BBPrice",
			"SELECT Make, Model, Year, Price, BBPrice WHERE Make='honda' AND Model='civic' AND Condition='fair' AND Price < BBPrice"},
		{"T3",
			"SELECT Make, Model, Year, Price, BBPrice WHERE Make='bmw' AND Year >= 1993 AND Safety='good' AND Condition='good' AND Price < BBPrice",
			"SELECT Make, Model, Year, Price, BBPrice WHERE Make='jaguar' AND Year >= 1990 AND Safety='good' AND Condition='good' AND Price < BBPrice"},
	}
	// bill is a query's stats without the clocks and the webbase-lifetime
	// gauge. Above one worker, whether a repeated access is served from
	// the cache, deduplicated or reused may vary (Config.Workers), so
	// those three are compared as their sum.
	bill := func(qs *QueryStats, workers int) string {
		b := *qs
		b.Elapsed, b.LimiterWait, b.PeakInFlight = 0, 0, 0
		if workers > 1 {
			repeated := b.CacheHits + b.Deduped + b.Reused
			b.CacheHits, b.Deduped, b.Reused = 0, 0, 0
			return fmt.Sprintf("%+v repeated:%d", b, repeated)
		}
		return fmt.Sprintf("%+v", b)
	}
	newWebbase := func(workers int) (*Webbase, *countingFetcher) {
		f := &countingFetcher{inner: sites.BuildWorld().Server}
		wb, err := New(Config{Fetcher: f, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return wb, f
	}
	for _, workers := range []int{1, 8} {
		wb, f := newWebbase(workers)
		for _, p := range pairs {
			if _, _, err := wb.QueryString(p.first); err != nil {
				t.Fatal(err)
			}
			wb.Cache().Clear()
			before := f.calls.Load()
			res, qs, err := wb.QueryString(p.second)
			if err != nil {
				t.Fatal(err)
			}
			fresh, ff := newWebbase(workers)
			fres, fqs, err := fresh.QueryString(p.second)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := res.Relation.String(), fres.Relation.String(); got != want || res.Relation.Len() == 0 {
				t.Errorf("workers=%d %s: answer\n%s\nwhere a fresh webbase answers\n%s", workers, p.class, got, want)
			}
			if got, want := bill(qs, workers), bill(fqs, workers); got != want {
				t.Errorf("workers=%d %s: bill\n%s\nwhere a fresh webbase bills\n%s", workers, p.class, got, want)
			}
			if got, want := f.calls.Load()-before, ff.calls.Load(); got != want {
				t.Errorf("workers=%d %s: %d fetches where a fresh webbase makes %d", workers, p.class, got, want)
			}
		}
	}
}
