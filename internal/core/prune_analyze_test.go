package core

import (
	"context"
	"strings"
	"testing"

	"webbase/internal/apartments"
	"webbase/internal/prune"
	"webbase/internal/sites"
	"webbase/internal/trace"
	"webbase/internal/ur"
)

// Golden EXPLAIN ANALYZE renders with pruning on (Workers=1, so the
// pruned spans and counts are deterministic). The apartments query is
// statically unsatisfiable, so every handle invocation the binding
// analysis allows is pruned pre-fetch (pruned=1 spans, zero pages); the
// usedcars query's LIMIT is satisfied by the first plan-order object, so
// the second is skipped outright.

const goldenApartmentsPrunedAnalyze = `query: SELECT Neighborhood, Rent WHERE Borough = brooklyn AND Borough = queens
universal relation: ApartmentUR (8 attributes, 2 maximal objects)
answer: 0 tuples

=== execution (actual) ===
SELECT Neighborhood, Rent WHERE Borough = brooklyn AND Borough = queens invocations=1 tuples=0
  object {Brokered} invocations=1 errors=1
    π[Neighborhood, Rent] invocations=1 errors=1
      σ[Borough = queens] invocations=1 errors=1
        σ[Borough = brooklyn] invocations=1 errors=1
          brokered invocations=1 errors=1
            aptFinder invocations=1 errors=1
              aptFinder (no usable handle) invocations=1 errors=1
  object {Listings} invocations=1 tuples=0
    π[Neighborhood, Rent] invocations=1 tuples=0
      σ[Borough = queens] invocations=1 tuples=0
        σ[Borough = brooklyn] invocations=1 tuples=0
          listings invocations=1 tuples=0
            ∪ʳ invocations=1 tuples=0
              cityRentals invocations=1 tuples=0
                cityRentals{Borough} via cityRentals invocations=1 pruned=1
              π[Borough, Neighborhood, Bedrooms, Rent, Contact] invocations=1 errors=1
                aptFinder invocations=1 errors=1
                  aptFinder (no usable handle) invocations=1 errors=1

skipped objects (binding unsatisfied):
  {Brokered}: logical: populating brokered: algebra: no binding set satisfied by inputs: vps: no handle invocable with the given inputs: relation aptFinder with inputs {Borough} (bindings: {Bedrooms, Borough})

`

// structuralSection cuts an EXPLAIN ANALYZE render at the volatile
// totals footer and strips the time=… fields.
func structuralSection(t *testing.T, out string) string {
	t.Helper()
	i := strings.Index(out, "=== totals")
	if i < 0 {
		t.Fatalf("no totals section in:\n%s", out)
	}
	return trace.StripTimings(out[:i])
}

// prunedFooterLine extracts the relevance-pruning footer line.
func prunedFooterLine(out string) string {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "pruned: ") {
			return line
		}
	}
	return ""
}

func TestExplainAnalyzePrunedGoldenApartments(t *testing.T) {
	wb, err := NewDomain(Config{Fetcher: apartments.BuildWorld().Server, Workers: 1, Prune: true}, Domain{
		Registry: apartments.Registry,
		Logical:  apartments.Logical,
		UR:       apartments.UR,
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := ur.ParseQuery(wb.UR, "SELECT Neighborhood, Rent WHERE Borough = 'brooklyn' AND Borough = 'queens'")
	if err != nil {
		t.Fatal(err)
	}
	out, err := wb.ExplainAnalyze(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got := structuralSection(t, out); got != goldenApartmentsPrunedAnalyze {
		t.Errorf("structural render diverged from golden\n--- got ---\n%s\n--- want ---\n%s",
			got, goldenApartmentsPrunedAnalyze)
	}
	if got, want := prunedFooterLine(out), "pruned: 1 access(es) skipped by relevance pruning (unsat-where=1)"; got != want {
		t.Errorf("footer line = %q, want %q", got, want)
	}
	// The clause is statically unsatisfiable: nothing was fetched.
	if !strings.Contains(out, "pages=0 ") {
		t.Errorf("expected zero pages fetched:\n%s", out)
	}
}

func TestExplainAnalyzePrunedGoldenUsedCars(t *testing.T) {
	wb, err := New(Config{Fetcher: sites.BuildWorld().Server, Workers: 1, Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	q, err := ur.ParseQuery(wb.UR, "SELECT Make, Model, Year, Price WHERE Make = 'ford' LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	out, err := wb.ExplainAnalyze(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	structural := structuralSection(t, out)
	// The second plan-order object (the dealer sites) is never launched:
	// its whole span is one pruned=1 line with zero tuples.
	if !strings.Contains(structural, "\n  object {Dealers} invocations=1 pruned=1 tuples=0\n") {
		t.Errorf("missing pruned object span:\n%s", structural)
	}
	// The first object still rendered its full evaluation tree.
	if !strings.Contains(structural, "object {Classifieds}") ||
		!strings.Contains(structural, "newsday{Make} via newsday") {
		t.Errorf("first object's tree missing:\n%s", structural)
	}
	if got, want := prunedFooterLine(out), "pruned: 1 access(es) skipped by relevance pruning (limit=1)"; got != want {
		t.Errorf("footer line = %q, want %q", got, want)
	}
	if !strings.Contains(out, "answer: 1 tuples") {
		t.Errorf("LIMIT 1 answer missing:\n%s", out)
	}
}

// TestPruneMetricsAgreement pins the accounting identity: the
// fetches_pruned_total counter (and its per-reason labels) accumulated by
// the metrics registry must equal the QueryStats.PrunedFetches /
// PrunedByReason sums over the queries that ran — and with pruning off,
// the counter must not even exist, keeping the historical /metrics
// output byte-identical.
func TestPruneMetricsAgreement(t *testing.T) {
	wb, err := New(Config{Fetcher: sites.BuildWorld().Server, Workers: 1, Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT Make, Model, Year, Price WHERE Make = 'ford' LIMIT 1",
		"SELECT Make, Model WHERE Make = 'jaguar' AND Make = 'ford'",
		wideCarQuery,
	}
	var total int64
	byReason := map[string]int64{}
	for _, text := range queries {
		_, qs, err := wb.QueryString(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		total += qs.PrunedFetches
		for r, n := range qs.PrunedByReason {
			byReason[r] += n
		}
	}
	if total == 0 {
		t.Fatal("corpus pruned nothing; the agreement check is vacuous")
	}
	snap := metricsPage(t, wb)
	if got := snap["fetches_pruned_total"]; got != float64(total) {
		t.Errorf("fetches_pruned_total = %v, QueryStats sum = %d", got, total)
	}
	var labelled int64
	for r, n := range byReason {
		name := `fetches_pruned_total{reason="` + r + `"}`
		if got := snap[name]; got != float64(n) {
			t.Errorf("%s = %v, QueryStats sum = %d", name, got, n)
		}
		labelled += n
	}
	if labelled != total {
		t.Errorf("per-reason sums (%d) disagree with total (%d)", labelled, total)
	}

	// Pruning off: the pruning series are listed like every other, and
	// each reads 0.
	off, err := New(Config{Fetcher: sites.BuildWorld().Server, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range queries {
		if _, _, err := off.QueryString(text); err != nil {
			t.Fatal(err)
		}
	}
	page := metricsPage(t, off)
	series := []string{"fetches_pruned_total"}
	for _, r := range prune.Reasons {
		series = append(series, `fetches_pruned_total{reason="`+r+`"}`)
	}
	for _, name := range series {
		if got, ok := page[name]; !ok || got != 0 {
			t.Errorf("pruning disabled: %s = %v (listed: %v), want 0", name, got, ok)
		}
	}
}
