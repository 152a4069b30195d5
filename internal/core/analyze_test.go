package core

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"webbase/internal/sites"
	"webbase/internal/trace"
	"webbase/internal/ur"
)

// wideCarQuery is the paper's Section 1 headline query — the widest plan
// the used-car domain produces (two maximal objects, dependent joins into
// the feature and safety sites), which makes it the acceptance query for
// trace determinism.
const wideCarQuery = "SELECT Make, Model, Year, Price, BBPrice, Contact " +
	"WHERE Make = 'jaguar' AND Year >= 1993 AND Safety = 'good' " +
	"AND Condition = 'good' AND Price < BBPrice"

// fakeClock is a deterministic time source: every reading advances 1ms.
// It is safe for concurrent use, which matters because parallel workers
// read the webbase clock from many goroutines.
func fakeClock() func() time.Time {
	var n atomic.Int64
	base := time.Date(1999, 6, 1, 0, 0, 0, 0, time.UTC)
	return func() time.Time { return base.Add(time.Duration(n.Add(1)) * time.Millisecond) }
}

func tracedRun(t *testing.T, workers int) (*ur.Result, *QueryStats, *trace.Trace, *Webbase) {
	t.Helper()
	wb, err := New(Config{Fetcher: sites.BuildWorld().Server, Workers: workers, Clock: fakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	q, err := ur.ParseQuery(wb.UR, wideCarQuery)
	if err != nil {
		t.Fatal(err)
	}
	res, qs, tr, err := wb.QueryTraced(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return res, qs, tr, wb
}

// TestTraceParallelDeterminism is the acceptance test of the tracing
// design: the trace *structure* — span IDs, kinds, names, deterministic
// counters — and the aggregated rendering minus timings must be
// byte-identical whether the query ran on one worker or eight.
func TestTraceParallelDeterminism(t *testing.T) {
	_, _, seqTr, _ := tracedRun(t, 1)
	_, _, parTr, _ := tracedRun(t, 8)

	seqStruct, parStruct := seqTr.Structure(), parTr.Structure()
	if seqStruct != parStruct {
		t.Errorf("trace structure differs between Workers=1 and Workers=8\n--- sequential ---\n%s\n--- parallel ---\n%s",
			seqStruct, parStruct)
	}
	seqRender := trace.StripTimings(seqTr.Render(trace.RenderOptions{Timings: true}))
	parRender := trace.StripTimings(parTr.Render(trace.RenderOptions{Timings: true}))
	if seqRender != parRender {
		t.Errorf("rendered plan (minus timings) differs between Workers=1 and Workers=8\n--- sequential ---\n%s\n--- parallel ---\n%s",
			seqRender, parRender)
	}
	if seqStruct == "" || !strings.Contains(seqRender, "invocations=") {
		t.Fatalf("suspiciously empty trace output:\n%s", seqRender)
	}
}

// TestExplainAnalyzeParallelDeterminism asserts the same property one
// level up: the structural section of ExplainAnalyze (everything above the
// volatile-totals footer, minus time=… fields) is byte-identical across
// worker counts, and reports per-operator tuples, handle invocations,
// fetches and latency.
func TestExplainAnalyzeParallelDeterminism(t *testing.T) {
	section := func(workers int) string {
		wb, err := New(Config{Fetcher: sites.BuildWorld().Server, Workers: workers, Clock: fakeClock()})
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
		structural, _, ok := strings.Cut(out, "=== totals (volatile) ===")
		if !ok {
			t.Fatalf("ExplainAnalyze output missing the volatile-totals footer:\n%s", out)
		}
		return trace.StripTimings(structural)
	}
	seq, par := section(1), section(8)
	if seq != par {
		t.Errorf("ExplainAnalyze structural section differs between Workers=1 and Workers=8\n--- sequential ---\n%s\n--- parallel ---\n%s",
			seq, par)
	}
	for _, want := range []string{"tuples=", "invocations=", "fetches=", "answer:"} {
		if !strings.Contains(seq, want) {
			t.Errorf("ExplainAnalyze structural section missing %q:\n%s", want, seq)
		}
	}
	// Timings belong to the full output, not the stripped section.
	if strings.Contains(seq, " time=") {
		t.Error("StripTimings left time= fields behind")
	}
}

// TestSharedEvaluationsTracedOnce: a relation both maximal objects read
// is traced where a sequential run evaluates it. Each scan of the blue book
// or of reliability either carries its evaluation or is marked shared=1
// and has nothing beneath it; reliability, read with the same make by both
// objects, is evaluated under the first object and shared by the second,
// at any worker count.
func TestSharedEvaluationsTracedOnce(t *testing.T) {
	for _, workers := range []int{1, 8} {
		_, _, tr, _ := tracedRun(t, workers)
		counts := map[string][2]int{} // relation → evaluated, shared
		for i, obj := range tr.Root.Children() {
			obj.Walk(func(s *trace.Span) {
				if s.Kind() != trace.KindOp || (s.Name() != "bluePrice" && s.Name() != "reliability") {
					return
				}
				c := counts[s.Name()]
				switch shared, kids := s.Counter("shared"), len(s.Children()); {
				case shared == 1 && kids == 0:
					c[1]++
				case shared == 0 && kids > 0:
					c[0]++
					if s.Name() == "reliability" && i != 0 {
						t.Errorf("workers=%d: reliability evaluated under object %d, not the first", workers, i)
					}
				default:
					t.Errorf("workers=%d: %s %s has shared=%d and %d children", workers, s.ID(), s.Name(), shared, kids)
				}
				counts[s.Name()] = c
			})
		}
		if c := counts["reliability"]; c != [2]int{1, 1} {
			t.Errorf("workers=%d: reliability evaluated %d times and shared %d, want once each", workers, c[0], c[1])
		}
		if c := counts["bluePrice"]; c[0] == 0 || c[1] == 0 {
			t.Errorf("workers=%d: bluePrice evaluated %d times and shared %d; both objects read it", workers, c[0], c[1])
		}
	}
}

// TestTraceAccounting is the cross-layer accounting property: what the
// trace records must reconcile with what the fetch stack and the query's
// page set counted. Every page visit has a fetch span, served by the
// network, the cache, an in-flight twin or the query's kept page, and the
// bill counts each kind exactly as often as the spans say.
func TestTraceAccounting(t *testing.T) {
	for _, workers := range []int{1, 8} {
		res, qs, tr, _ := tracedRun(t, workers)

		var total, network, cacheHits, deduped, reused int64
		tr.Root.Walk(func(s *trace.Span) {
			if s.Kind() != trace.KindFetch {
				return
			}
			total++
			switch s.LabelValue("outcome") {
			case "network":
				network++
			case "cache":
				cacheHits++
			case "dedup":
				deduped++
			case "reuse":
				reused++
			}
		})
		for _, c := range []struct {
			what         string
			spans, stats int64
		}{
			{"network fetches (Pages)", network, qs.Pages},
			{"cache hits", cacheHits, qs.CacheHits},
			{"deduped fetches", deduped, qs.Deduped},
			{"reused pages", reused, qs.Reused},
		} {
			if c.spans != c.stats {
				t.Errorf("workers=%d: trace records %d %s; stats counted %d", workers, c.spans, c.what, c.stats)
			}
		}
		if network+cacheHits+deduped+reused != total {
			t.Errorf("workers=%d: %d fetch spans lack an outcome label (total=%d network=%d cache=%d dedup=%d reuse=%d)",
				workers, total-network-cacheHits-deduped-reused, total, network, cacheHits, deduped, reused)
		}
		if total == 0 || reused == 0 {
			t.Fatalf("workers=%d: %d fetch spans, %d of them reused; the headline query repeats the blue book's pages",
				workers, total, reused)
		}
		if got := tr.Root.Counter("tuples"); got != int64(res.Relation.Len()) {
			t.Errorf("workers=%d: root span tuples=%d; answer has %d", workers, got, res.Relation.Len())
		}
	}
}

// TestTraceTupleConsistency checks parent/child cardinality invariants on
// the operator spans: selections and projections never grow their input,
// and a union's output is bounded by the sum of its branches.
func TestTraceTupleConsistency(t *testing.T) {
	_, _, tr, _ := tracedRun(t, 4)

	ops := 0
	tr.Root.Walk(func(s *trace.Span) {
		if s.Kind() != trace.KindOp || s.Err() != "" {
			return
		}
		var kids []*trace.Span
		for _, c := range s.Children() {
			if c.Kind() == trace.KindOp {
				kids = append(kids, c)
			}
		}
		name, tuples := s.Name(), s.Counter("tuples")
		switch {
		case strings.HasPrefix(name, "σ["), strings.HasPrefix(name, "π["):
			if len(kids) == 1 && tuples > kids[0].Counter("tuples") {
				t.Errorf("%s %s produced %d tuples from an input of %d",
					s.ID(), name, tuples, kids[0].Counter("tuples"))
			}
			ops++
		case name == "∪", name == "∪ʳ":
			var sum int64
			for _, c := range kids {
				sum += c.Counter("tuples")
			}
			if len(kids) > 0 && tuples > sum {
				t.Errorf("%s %s produced %d tuples from branches totalling %d",
					s.ID(), name, tuples, sum)
			}
			ops++
		}
	})
	if ops == 0 {
		t.Fatal("no σ/π/∪ operator spans found; is the algebra layer traced?")
	}
}

// TestQueryTracedMatchesUntraced: tracing must observe, never change —
// the traced answer is tuple-for-tuple the untraced one, and the traced
// stats account the same pages.
func TestQueryTracedMatchesUntraced(t *testing.T) {
	wb, err := New(Config{Fetcher: sites.BuildWorld().Server, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	q, err := ur.ParseQuery(wb.UR, wideCarQuery)
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := wb.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	traced, _, tr, err := wb.QueryTraced(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Relation.String() != traced.Relation.String() {
		t.Error("traced query answer differs from untraced")
	}
	if tr == nil || tr.Root == nil {
		t.Fatal("no trace returned")
	}
}

// TestMetricsAccumulate: the webbase-lifetime registry aggregates across
// queries and snapshots consistently.
func TestMetricsAccumulate(t *testing.T) {
	wb, err := New(Config{Fetcher: sites.BuildWorld().Server, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := wb.QueryString(wideCarQuery); err != nil {
			t.Fatal(err)
		}
	}
	snap := wb.Metrics().Snapshot()
	if got := snap.Counters["queries_total"]; got != 2 {
		t.Errorf("queries_total = %d, want 2", got)
	}
	if snap.Counters["pages_fetched_total"] == 0 {
		t.Error("pages_fetched_total is zero after two queries")
	}
	// Second run is cache-served: hits must have registered.
	if snap.Counters["cache_hits_total"] == 0 {
		t.Error("cache_hits_total is zero; the repeat query should hit the cache")
	}
	h, ok := snap.Histograms["query_pages"]
	if !ok || h.Count != 2 {
		t.Errorf("query_pages histogram count = %+v, want 2 observations", h)
	}
	if !strings.Contains(snap.String(), "counter queries_total 2") {
		t.Errorf("snapshot rendering missing queries_total:\n%s", snap)
	}
}
