package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"webbase/internal/apartments"
	"webbase/internal/relation"
	"webbase/internal/sites"
	"webbase/internal/web"
)

// TestParallelQueryByteIdentical is the acceptance golden test: parallel
// evaluation (Workers=4) must produce byte-identical results to
// sequential evaluation (Workers=1) on both application domains.
func TestParallelQueryByteIdentical(t *testing.T) {
	domains := []struct {
		name    string
		build   func(cfg Config) (*Webbase, error)
		queries []string
	}{
		{
			name: "usedcars",
			build: func(cfg Config) (*Webbase, error) {
				cfg.Fetcher = sites.BuildWorld().Server
				return New(cfg)
			},
			queries: []string{
				"SELECT Make, Model, Year, Price WHERE Make = 'ford' AND Model = 'escort'",
				"SELECT Make, Model, Year, Price, BBPrice, Contact WHERE Make = 'jaguar' AND Year >= 1993 " +
					"AND Safety = 'good' AND Condition = 'good' AND Price < BBPrice",
				"SELECT Make, BBPrice WHERE Make = 'bmw' AND Model = '325i' AND Condition = 'good'",
				"SELECT Make, Model, Safety WHERE Make = 'honda'",
			},
		},
		{
			name: "apartments",
			build: func(cfg Config) (*Webbase, error) {
				cfg.Fetcher = apartments.BuildWorld().Server
				return NewDomain(cfg, Domain{
					Registry: apartments.Registry,
					Logical:  apartments.Logical,
					UR:       apartments.UR,
				})
			},
			queries: []string{
				"SELECT Neighborhood, Rent, MedianRent, CrimeRate, Contact WHERE Borough = 'brooklyn' " +
					"AND Bedrooms = 2 AND Rent < MedianRent AND CrimeRate <= 5 ORDER BY Rent",
				"SELECT Neighborhood, Rent, Fee WHERE Borough = 'queens' AND Bedrooms = 1 AND Fee < 120",
			},
		},
	}
	for _, d := range domains {
		t.Run(d.name, func(t *testing.T) {
			seq, err := d.build(Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			par, err := d.build(Config{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range d.queries {
				sres, _, err := seq.QueryString(q)
				if err != nil {
					t.Fatalf("sequential %s: %v", q, err)
				}
				pres, _, err := par.QueryString(q)
				if err != nil {
					t.Fatalf("parallel %s: %v", q, err)
				}
				if sres.Relation.String() != pres.Relation.String() {
					t.Errorf("%s: parallel answer differs\nsequential:\n%s\nparallel:\n%s",
						q, sres.Relation, pres.Relation)
				}
				if fmt.Sprint(sres.Skipped) != fmt.Sprint(pres.Skipped) {
					t.Errorf("%s: skipped objects differ: %v vs %v", q, sres.Skipped, pres.Skipped)
				}
			}
		})
	}
}

// TestParallelQueryOverFlakyWeb is the fault-injection test: parallel
// union branches and dependent joins over a Web where every fourth fetch
// fails, healed by retries, must still produce the reliable answers.
func TestParallelQueryOverFlakyWeb(t *testing.T) {
	const q = "SELECT Make, Model, Year, Price, BBPrice WHERE Make = 'ford' AND Model = 'escort' AND Condition = 'good'"
	reliable, err := New(Config{Fetcher: sites.BuildWorld().Server, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := reliable.QueryString(q)
	if err != nil {
		t.Fatal(err)
	}

	flaky := &web.Flaky{Inner: sites.BuildWorld().Server, FailEvery: 4}
	sys, err := New(Config{Fetcher: flaky, Workers: 8, Fetch: web.Policy{Retries: 6}})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := sys.QueryString(q)
	if err != nil {
		t.Fatalf("parallel query over flaky web: %v", err)
	}
	if got.Relation.String() != want.Relation.String() {
		t.Errorf("flaky parallel answers differ:\n%s\nwant:\n%s", got.Relation, want.Relation)
	}
	if flaky.Attempts() == 0 {
		t.Error("flaky fetcher unused")
	}
}

// hostDownFetcher fails every fetch against one host and forwards the
// rest — one site is having an outage.
type hostDownFetcher struct {
	inner web.Fetcher
	down  string
}

func (h *hostDownFetcher) Fetch(req *web.Request) (*web.Response, error) {
	if web.HostOf(req.URL) == h.down {
		return nil, fmt.Errorf("host %s: connection refused", h.down)
	}
	return h.inner.Fetch(req)
}

// TestPopulateAllSiteErrorIsolation knocks one site offline and sweeps
// all ten: the dead site's error must land in its own SiteResult without
// aborting or emptying the sibling sites — the per-branch error surface
// the sweep promises.
func TestPopulateAllSiteErrorIsolation(t *testing.T) {
	w := sites.BuildWorld()
	wb, err := New(Config{
		Fetcher: &hostDownFetcher{inner: w.Server, down: sites.NewsdayHost},
		Workers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]relation.Value{
		"Make": relation.String("ford"), "Model": relation.String("escort"),
		"Condition": relation.String("good"),
	}
	results := wb.PopulateAll(context.Background(), sweepSites, inputs)
	if len(results) != len(sweepSites) {
		t.Fatalf("results = %d", len(results))
	}
	var failed, succeeded int
	for _, r := range results {
		if r.Relation == "newsday" {
			if r.Err == nil {
				t.Error("newsday sweep should report the outage")
			}
			failed++
			continue
		}
		if r.Err != nil {
			t.Errorf("%s: sibling aborted by newsday outage: %v", r.Relation, r.Err)
			continue
		}
		succeeded++
	}
	if failed != 1 || succeeded != len(sweepSites)-1 {
		t.Errorf("failed=%d succeeded=%d", failed, succeeded)
	}
}

// cancelAfterFetcher cancels a context after a fixed number of fetches —
// a user abort landing mid-navigation.
type cancelAfterFetcher struct {
	inner  web.Fetcher
	cancel context.CancelFunc
	after  int64
	n      atomic.Int64
}

func (c *cancelAfterFetcher) Fetch(req *web.Request) (*web.Response, error) {
	if c.n.Add(1) == c.after {
		c.cancel()
	}
	return c.inner.Fetch(req)
}

// TestQueryCancellationStopsFetches cancels the query context partway
// through navigation and asserts (a) the query unwinds with
// context.Canceled and (b) evaluation stopped issuing fetches — the
// counter stops far short of the full run and does not move after
// Query returns.
func TestQueryCancellationStopsFetches(t *testing.T) {
	const q = "SELECT Make, Model, Year, Price WHERE Make = 'ford' AND Model = 'escort'"
	w := sites.BuildWorld()

	// Baseline: how many fetches does the full query need?
	counter := &cancelAfterFetcher{inner: w.Server, cancel: func() {}, after: -1}
	full, err := New(Config{Fetcher: counter, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := full.QueryString(q); err != nil {
		t.Fatal(err)
	}
	fullFetches := counter.n.Load()
	if fullFetches < 10 {
		t.Fatalf("query too small to test cancellation (%d fetches)", fullFetches)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	aborter := &cancelAfterFetcher{inner: w.Server, cancel: cancel, after: 3}
	wb, err := New(Config{Fetcher: aborter, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = wb.Query(ctx, mustParse(t, wb, q))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	atReturn := aborter.n.Load()
	// In-flight fetches complete, but no new navigation starts: the count
	// must be well below the full run (each site alone needs several
	// pages, and there are ten sites).
	if atReturn >= fullFetches/2 {
		t.Errorf("cancelled query still fetched %d of %d pages", atReturn, fullFetches)
	}
	// All evaluation goroutines joined before Query returned, so
	// the counter is quiescent.
	if again := aborter.n.Load(); again != atReturn {
		t.Errorf("fetches continued after return: %d → %d", atReturn, again)
	}
}

// TestPopulateAllDuplicateNamesDeterministic is the regression test for
// the sweep-ordering hazard: with duplicate relation names, the old
// unstable sort could interleave slots in scheduler-dependent order. The
// stable sort pins submission order among equals, so repeated sweeps at
// Workers 8 agree with each other and with the sweep at Workers 1.
func TestPopulateAllDuplicateNamesDeterministic(t *testing.T) {
	wb := newWorkersWebbase(t, 8)
	rels := []string{"kellys", "newsday", "kellys", "autoWeb", "newsday", "kellys"}
	inputs := map[string]relation.Value{
		"Make": relation.String("ford"), "Model": relation.String("escort"),
		"Condition": relation.String("good"),
	}
	render := func(results []SiteResult) string {
		out := ""
		for _, r := range results {
			out += r.Relation
			if r.Err != nil {
				out += "(err)"
			} else {
				out += fmt.Sprintf("(%d)", r.Rel.Len())
			}
			out += " "
		}
		return out
	}
	want := render(newWorkersWebbase(t, 1).PopulateAll(context.Background(), rels, inputs))
	for i := 0; i < 5; i++ {
		if got := render(wb.PopulateAll(context.Background(), rels, inputs)); got != want {
			t.Fatalf("sweep %d ordering diverged:\n got %s\nwant %s", i, got, want)
		}
	}
}
