package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"webbase/internal/sites"
	"webbase/internal/ur"
	"webbase/internal/web"
)

// slowHostsFetcher delays every fetch to the named hosts by delay — a
// real sleep, so Config.Fetch.Deadline (which reads the wall clock) sees the
// time pass.
type slowHostsFetcher struct {
	inner web.Fetcher
	slow  map[string]bool
	delay time.Duration
}

func (s *slowHostsFetcher) Fetch(req *web.Request) (*web.Response, error) {
	if s.slow[web.HostOf(req.URL)] {
		time.Sleep(s.delay)
	}
	return s.inner.Fetch(req)
}

// slowClassifieds makes both classifieds sites slow enough that any
// object touching them exhausts a 150ms budget after its first fetch.
func slowClassifieds(delay time.Duration) web.Fetcher {
	return &slowHostsFetcher{
		inner: sites.BuildWorld().Server,
		slow:  map[string]bool{sites.NewsdayHost: true, sites.NYTimesHost: true},
		delay: delay,
	}
}

// deadlineOutcome folds a budget-limited run into one comparable string:
// the partial answer, the skipped objects and the degradation report.
func deadlineOutcome(t *testing.T, workers int) (string, *ur.Result) {
	t.Helper()
	wb, err := New(Config{
		Fetcher: slowClassifieds(400 * time.Millisecond),
		Workers: workers,
		Fetch:   web.Policy{Deadline: 150 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := wb.QueryString(wideCarQuery)
	if err != nil {
		t.Fatalf("workers=%d: budget-limited query failed outright: %v", workers, err)
	}
	var sb strings.Builder
	sb.WriteString(res.Relation.String())
	sb.WriteString("\n")
	sb.WriteString(res.Degradation.String())
	return sb.String(), res
}

// TestDeadlineDegradationDeterministic is the budget acceptance test: a
// query whose classifieds object outlives Config.Fetch.Deadline degrades to
// the surviving objects, and the answer AND the degradation report are
// byte-identical at Workers=1 and Workers=8 — the shed error is a static
// verdict about the budget, not about which goroutine lost a race.
func TestDeadlineDegradationDeterministic(t *testing.T) {
	seq, seqRes := deadlineOutcome(t, 1)
	par, parRes := deadlineOutcome(t, 8)
	if seq != par {
		t.Errorf("budget-degraded outcome differs across worker counts\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", seq, par)
	}
	for _, res := range []*ur.Result{seqRes, parRes} {
		if !res.Degradation.Degraded() {
			t.Fatal("budget-limited query did not degrade")
		}
		if n := len(res.Degradation.Unavailable); n != 1 {
			t.Fatalf("%d objects degraded, want 1 (only Classifieds touches the slow hosts):\n%s",
				n, res.Degradation)
		}
		f := res.Degradation.Unavailable[0]
		if !strings.Contains(strings.Join(f.Object, ","), "Classifieds") {
			t.Errorf("degraded object %v, want the Classifieds one", f.Object)
		}
		if !strings.Contains(f.Err, web.ErrBudgetExhausted.Error()) {
			t.Errorf("degradation cause %q does not name the budget", f.Err)
		}
		// The surviving Dealers object ran on its own (healthy) budget:
		// a partial answer survives.
		if res.Relation.Len() == 0 {
			t.Error("budget degradation emptied the answer; the Dealers object should survive")
		}
	}
}

// TestDeadlineStrictSurfacesBudget pins the strict-mode contract: with
// Strict on, the budget verdict aborts the query and is classified as
// both an outage and a budget exhaustion.
func TestDeadlineStrictSurfacesBudget(t *testing.T) {
	wb, err := New(Config{
		Fetcher: slowClassifieds(400 * time.Millisecond),
		Workers: 4,
		Strict:  true,
		Fetch:   web.Policy{Deadline: 150 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = wb.QueryString(wideCarQuery)
	if err == nil {
		t.Fatal("strict budget-limited query succeeded")
	}
	if !web.IsOutage(err) {
		t.Errorf("strict budget error %v is not outage-classified", err)
	}
	if !web.IsBudgetExhausted(err) {
		t.Errorf("strict budget error %v does not match ErrBudgetExhausted", err)
	}
}

// TestDeadlineExplainAnalyzeAnnotation: budget exhaustion is visible in
// EXPLAIN ANALYZE — the exhausted object's span carries the
// budget-exhausted annotation and the volatile footer carries the
// degradation report.
func TestDeadlineExplainAnalyzeAnnotation(t *testing.T) {
	wb, err := New(Config{
		Fetcher: slowClassifieds(400 * time.Millisecond),
		Workers: 4,
		Fetch:   web.Policy{Deadline: 150 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := ur.ParseQuery(wb.UR, wideCarQuery)
	if err != nil {
		t.Fatal(err)
	}
	out, err := wb.ExplainAnalyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "budget-exhausted=1") {
		t.Errorf("EXPLAIN ANALYZE output lacks the budget-exhausted span annotation:\n%s", out)
	}
	if !strings.Contains(out, "degraded:") {
		t.Errorf("EXPLAIN ANALYZE output lacks the degradation footer:\n%s", out)
	}
	if got := wb.Metrics().Snapshot().Counters["budget_shed_total"]; got == 0 {
		t.Error("budget_shed_total = 0 after a budget-degraded query")
	}
}

// TestHedgedDeterminism: hedging duplicates network attempts, never
// answers — the relation is byte-identical with hedging on and off, at
// Workers=1 and Workers=8, because both attempts of any fetch carry the
// same deterministic bytes and the winner is selected deterministically.
func TestHedgedDeterminism(t *testing.T) {
	run := func(hedge time.Duration, workers int) (string, *Webbase) {
		wb, err := New(Config{
			Fetcher: sites.BuildWorld().Server,
			Latency: web.LatencyModel{PerRequest: 4 * time.Millisecond, Sleep: true},
			Workers: workers,
			Fetch:   web.Policy{HedgeAfter: hedge},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := wb.QueryString(wideCarQuery)
		if err != nil {
			t.Fatalf("hedge=%v workers=%d: %v", hedge, workers, err)
		}
		return res.Relation.String(), wb
	}

	base, _ := run(0, 1)
	for _, cfg := range []struct {
		hedge   time.Duration
		workers int
	}{{0, 8}, {2 * time.Millisecond, 1}, {2 * time.Millisecond, 8}} {
		got, wb := run(cfg.hedge, cfg.workers)
		if got != base {
			t.Errorf("hedge=%v workers=%d: answer differs from the unhedged sequential baseline",
				cfg.hedge, cfg.workers)
		}
		if cfg.hedge > 0 {
			// Every fetch sleeps 4ms and the hedge fires at 2ms, so hedges
			// must have been issued — and recorded end to end.
			if wb.Stats().Hedges() == 0 {
				t.Errorf("hedge=%v workers=%d: no hedges issued", cfg.hedge, cfg.workers)
			}
			if got := wb.Metrics().Snapshot().Counters["fetch_hedges_total"]; got == 0 {
				t.Errorf("hedge=%v workers=%d: fetch_hedges_total = 0", cfg.hedge, cfg.workers)
			}
		}
	}
}

// TestDeadlineDisabledNoBudget: without Config.Fetch.Deadline the slow hosts
// simply take their time — nothing degrades, pinning that budgets are
// opt-in.
func TestDeadlineDisabledNoBudget(t *testing.T) {
	wb, err := New(Config{Fetcher: slowClassifieds(40 * time.Millisecond), Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := wb.QueryContext(context.Background(), mustParse(t, wb, wideCarQuery))
	if err != nil {
		t.Fatal(err)
	}
	if res.Degradation.Degraded() {
		t.Fatalf("undeadlined query degraded: %s", res.Degradation)
	}
}

func mustParse(t *testing.T, wb *Webbase, text string) ur.Query {
	t.Helper()
	q, err := ur.ParseQuery(wb.UR, text)
	if err != nil {
		t.Fatal(err)
	}
	return q
}
