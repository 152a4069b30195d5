package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"webbase/internal/algebra"
	"webbase/internal/relation"
	"webbase/internal/sites"
	"webbase/internal/ur"
	"webbase/internal/web"
)

func newTestWebbase(t *testing.T) (*Webbase, *sites.World) {
	t.Helper()
	w := sites.BuildWorld()
	wb, err := New(Config{Fetcher: w.Server})
	if err != nil {
		t.Fatal(err)
	}
	return wb, w
}

func TestNewRequiresFetcher(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing fetcher accepted")
	}
}

// TestHeadlineQuery runs the paper's Section 1 query end to end: "make a
// list of used Jaguars advertised in New York City area, such that each
// car is a 1993 or later model, has good safety ratings, and its selling
// price is less than its Blue Book value."
func TestHeadlineQuery(t *testing.T) {
	wb, _ := newTestWebbase(t)
	q := ur.Query{
		Output: []string{"Make", "Model", "Year", "Price", "BBPrice", "Contact"},
		Conditions: []algebra.Condition{
			{Attr: "Make", Op: algebra.EQ, Val: relation.String("jaguar")},
			{Attr: "Year", Op: algebra.GE, Val: relation.Int(1993)},
			{Attr: "Safety", Op: algebra.EQ, Val: relation.String("good")},
			{Attr: "Condition", Op: algebra.EQ, Val: relation.String("good")},
			{Attr: "Price", Op: algebra.LT, Attr2: "BBPrice"},
		},
	}
	res, stats, err := wb.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() == 0 {
		t.Fatal("headline query returned nothing; the synthetic world should contain bargain jaguars")
	}
	for _, tp := range res.Relation.Tuples() {
		mk, _ := res.Relation.Get(tp, "Make")
		yr, _ := res.Relation.Get(tp, "Year")
		p, _ := res.Relation.Get(tp, "Price")
		bb, _ := res.Relation.Get(tp, "BBPrice")
		if mk.Str() != "jaguar" || yr.IntVal() < 1993 || p.FloatVal() >= bb.FloatVal() {
			t.Fatalf("bad answer tuple: %v", tp)
		}
	}
	// Both ad-source maximal objects participate (classifieds + dealers).
	if len(res.Plan.Objects) != 2 {
		t.Errorf("plan objects = %d, want 2", len(res.Plan.Objects))
	}
	if stats.Pages == 0 {
		t.Error("no pages counted")
	}
	t.Logf("headline: %d answers, %s", res.Relation.Len(), stats)
}

func TestQueryString(t *testing.T) {
	wb, _ := newTestWebbase(t)
	res, _, err := wb.QueryString(
		"SELECT Make, Model, Year, Price WHERE Make = 'ford' AND Model = 'escort' AND Year >= 1994")
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() == 0 {
		t.Fatal("no answers")
	}
	for _, tp := range res.Relation.Tuples() {
		yr, _ := res.Relation.Get(tp, "Year")
		if yr.IntVal() < 1994 {
			t.Fatalf("year filter leaked: %v", tp)
		}
	}
	if _, _, err := wb.QueryString("nonsense"); err == nil {
		t.Error("bad query accepted")
	}
}

func TestQueryCacheEffect(t *testing.T) {
	wb, _ := newTestWebbase(t)
	q := "SELECT Make, Price WHERE Make = 'honda' AND Model = 'civic'"
	_, first, err := wb.QueryString(q)
	if err != nil {
		t.Fatal(err)
	}
	_, second, err := wb.QueryString(q)
	if err != nil {
		t.Fatal(err)
	}
	if second.Pages != 0 {
		t.Errorf("repeat query fetched %d pages; cache should absorb all", second.Pages)
	}
	if second.CacheHits == 0 {
		t.Error("no cache hits recorded")
	}
	if first.Pages == 0 {
		t.Error("first query fetched nothing")
	}
}

func TestPopulateAllMatchesSequential(t *testing.T) {
	wb, _ := newTestWebbase(t)
	rels := TimingTableRelations
	inputs := map[string]relation.Value{
		"Make": relation.String("ford"), "Model": relation.String("escort"),
		"Condition": relation.String("good"),
	}
	par := wb.PopulateAll(rels, inputs)
	seq := wb.PopulateSequential(rels, inputs)
	if len(par) != len(seq) {
		t.Fatalf("lengths differ: %d vs %d", len(par), len(seq))
	}
	for i := range par {
		if par[i].Relation != seq[i].Relation {
			t.Fatalf("order differs at %d", i)
		}
		if (par[i].Err == nil) != (seq[i].Err == nil) {
			t.Fatalf("%s: error mismatch %v vs %v", par[i].Relation, par[i].Err, seq[i].Err)
		}
		if par[i].Err == nil && par[i].Rel.Len() != seq[i].Rel.Len() {
			t.Errorf("%s: %d vs %d tuples", par[i].Relation, par[i].Rel.Len(), seq[i].Rel.Len())
		}
	}
}

func TestSiteTimingsShape(t *testing.T) {
	w := sites.BuildWorld()
	rows, err := SiteTimings(w.Server, DefaultLatency)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := make(map[string]SiteTiming)
	for _, r := range rows {
		byName[r.Site] = r
		if r.Pages == 0 {
			t.Errorf("%s: no pages", r.Site)
		}
		// The paper's shape: elapsed (network-bound) dominates cpu.
		if r.Elapsed <= r.CPU {
			t.Errorf("%s: elapsed %v not greater than cpu %v", r.Site, r.Elapsed, r.CPU)
		}
	}
	// Shape: the single-form site navigates fewer pages than the
	// paginated classifieds.
	if byName["wwWheels"].Pages >= byName["newsday"].Pages {
		t.Errorf("wwWheels pages (%d) should be below newsday (%d)",
			byName["wwWheels"].Pages, byName["newsday"].Pages)
	}
	out := FormatSiteTimings(rows)
	if !strings.Contains(out, "newsday") || !strings.Contains(out, "#pages") {
		t.Errorf("format:\n%s", out)
	}
}

func TestParallelSweepSpeedsUp(t *testing.T) {
	w := sites.BuildWorld()
	model := web.LatencyModel{PerRequest: 3 * time.Millisecond}
	rows, err := ParallelSweep(w.Server, model, []int{1, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Elapsed is printed, not asserted: what parallel evaluation means is
	// that fetches overlap, and that is a count.
	if rows[0].PeakInFlight != 1 {
		t.Errorf("1 worker had %d fetches in flight at once, want 1", rows[0].PeakInFlight)
	}
	if p := rows[1].PeakInFlight; p < 2 || p > 10 {
		t.Errorf("10 workers had %d fetches in flight at once, want 2..10", p)
	}
	if rows[0].Pages == 0 || rows[0].Pages != rows[1].Pages {
		t.Errorf("pages = %d at 1 worker, %d at 10: the work must not depend on the width", rows[0].Pages, rows[1].Pages)
	}
	if !strings.Contains(FormatParallelSweep(rows), "speedup") {
		t.Error("format")
	}
}

func TestScaledSweep(t *testing.T) {
	model := web.LatencyModel{PerRequest: 2 * time.Millisecond}
	rows, err := ScaledSweep(24, model, []int{1, 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].PeakInFlight != 1 {
		t.Errorf("1 worker had %d fetches in flight at once, want 1", rows[0].PeakInFlight)
	}
	if p := rows[1].PeakInFlight; p < 2 || p > 12 {
		t.Errorf("12 workers had %d fetches in flight at once over 24 homogeneous sites, want 2..12", p)
	}
	for _, r := range rows {
		if r.Pages != 2*24 {
			t.Errorf("%d workers fetched %d pages, want two per site", r.Workers, r.Pages)
		}
	}
}

func TestMapStats(t *testing.T) {
	w := sites.BuildWorld()
	stats, err := MapStats(w.Server)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 13 {
		t.Fatalf("stats rows = %d", len(stats))
	}
	for _, s := range stats {
		if s.Objects == 0 || s.Attributes == 0 {
			t.Errorf("%s: no automatic extraction", s.Site)
		}
		if r := s.ManualRatio(); r > 0.25 {
			t.Errorf("%s: manual ratio %.2f too high", s.Site, r)
		}
	}
}

func TestMeasureTimeSplit(t *testing.T) {
	w := sites.BuildWorld()
	ts, err := MeasureTimeSplit(w.Server, DefaultLatency)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Pages == 0 || ts.Fetch == 0 {
		t.Errorf("split incomplete: %s", ts)
	}
	if ts.Parse <= 0 {
		t.Errorf("parse time not measured: %s", ts)
	}
	if !strings.Contains(ts.String(), "parse=") {
		t.Error("format")
	}
}

func TestPaperArtifactRenderings(t *testing.T) {
	wb, _ := newTestWebbase(t)

	t1 := wb.Table1()
	for _, want := range []string{"Blue Book Prices", "kellys", "newsday", "Interest Rates"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
	t2 := wb.Table2()
	for _, want := range []string{"classifieds", "newsdayCarFeatures", "∪", "dealers", "∪ʳ"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table2 missing %q", want)
		}
	}
	t3 := wb.Table3()
	for _, want := range []string{"kellys", "{Condition, Make, Model}", "{Url}"} {
		if !strings.Contains(t3, want) {
			t.Errorf("Table3 missing %q", want)
		}
	}
	text, dot := Figure2()
	if !strings.Contains(text, "form f1(make)") || !strings.Contains(dot, "digraph") {
		t.Error("Figure2 rendering")
	}
	f3 := Figure3()
	for _, want := range []string{"web_page[", "attrValPair[", "mandatory =>> attrValPair"} {
		if !strings.Contains(f3, want) {
			t.Errorf("Figure3 missing %q", want)
		}
	}
	f4, err := Figure4()
	if err != nil || !strings.Contains(f4, "visit_carData") {
		t.Errorf("Figure4: %v\n%s", err, f4)
	}
	f5 := wb.Figure5()
	if !strings.Contains(f5, "Classifieds [relation]") {
		t.Errorf("Figure5:\n%s", f5)
	}
	e62, err := Example62()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(e62, "⋈") != 15 { // 5 objects × 3 joins each
		t.Errorf("Example62 objects wrong:\n%s", e62)
	}
	if !strings.Contains(e62, "Lease ⊖ Classifieds") {
		t.Errorf("Example62 constraints missing:\n%s", e62)
	}
}

// TestQueryOverFlakyWeb answers correctly over a Web where roughly every
// fourth fetch fails, using retries — the failure-injection test of the
// paper's observation that navigation processes fail and must be coped
// with.
func TestQueryOverFlakyWeb(t *testing.T) {
	w := sites.BuildWorld()
	flaky := &web.Flaky{Inner: w.Server, FailEvery: 4}
	sys, err := New(Config{Fetcher: flaky, Retries: 6})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := sys.QueryString(
		"SELECT Make, Model, Year, Price WHERE Make = 'ford' AND Model = 'escort'")
	if err != nil {
		t.Fatalf("query over flaky web failed: %v", err)
	}
	// Same answers as a reliable run.
	reliable, _ := New(Config{Fetcher: w.Server})
	want, _, err := reliable.QueryString(
		"SELECT Make, Model, Year, Price WHERE Make = 'ford' AND Model = 'escort'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != want.Relation.Len() {
		t.Errorf("flaky answers = %d, reliable = %d", res.Relation.Len(), want.Relation.Len())
	}
	if flaky.Attempts() == 0 {
		t.Error("flaky fetcher unused")
	}
}

// TestQueryOverFlakyWebWithoutRetries documents the failure mode: without
// retries an outage during navigation surfaces as an error (or, on
// relaxed-union branches, a partial answer), never a wrong answer.
func TestQueryOverFlakyWebWithoutRetries(t *testing.T) {
	w := sites.BuildWorld()
	flaky := &web.Flaky{Inner: w.Server, FailEvery: 3}
	sys, err := New(Config{Fetcher: flaky})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := sys.QueryString(
		"SELECT Make, Model, Year, Price WHERE Make = 'ford' AND Model = 'escort'")
	if err != nil {
		return // expected: the outage aborted evaluation
	}
	// If it survived (outages may fall on retried-anyway cache paths or
	// skipped branches), the answers that did arrive must be correct.
	for _, tp := range res.Relation.Tuples() {
		mk, _ := res.Relation.Get(tp, "Make")
		if mk.Str() != "ford" {
			t.Fatalf("wrong answer under failure: %v", tp)
		}
	}
}

// TestConcurrentQueries hammers one webbase from many goroutines: the
// shared cache, stats and registries must be race-free (run with -race)
// and answers must match the sequential ones.
func TestConcurrentQueries(t *testing.T) {
	wb, _ := newTestWebbase(t)
	queries := []string{
		"SELECT Make, Price WHERE Make = 'ford' AND Model = 'escort'",
		"SELECT Make, Price WHERE Make = 'honda' AND Model = 'civic'",
		"SELECT Make, Model, Safety WHERE Make = 'jaguar'",
		"SELECT Make, BBPrice WHERE Make = 'bmw' AND Model = '325i' AND Condition = 'good'",
	}
	want := make([]int, len(queries))
	for i, q := range queries {
		res, _, err := wb.QueryString(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want[i] = res.Relation.Len()
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := queries[g%len(queries)]
			res, _, err := wb.QueryString(q)
			if err != nil {
				errs <- fmt.Errorf("%s: %w", q, err)
				return
			}
			if res.Relation.Len() != want[g%len(queries)] {
				errs <- fmt.Errorf("%s: %d answers, want %d", q, res.Relation.Len(), want[g%len(queries)])
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSystemOracleProperty is the end-to-end correctness property: for
// every make/model in the catalog, the UR answer to
// SELECT Make, Model, Year, Price equals the distinct set computed
// directly from the ground-truth datasets of the sites the logical views
// cover (newsday + nyTimes via classifieds; carPoint, autoWeb, wwWheels,
// yahooCars via dealers).
func TestSystemOracleProperty(t *testing.T) {
	wb, w := newTestWebbase(t)
	coveredHosts := []string{
		sites.NewsdayHost, sites.NYTimesHost,
		sites.CarPointHost, sites.AutoWebHost, sites.WWWheelsHost, sites.YahooCarsHost,
	}
	for mk, models := range sites.Catalog {
		for _, md := range models {
			oracle := map[string]bool{}
			for _, host := range coveredHosts {
				for _, ad := range w.Datasets[host].ByMakeModel(mk, md) {
					oracle[fmt.Sprintf("%d|%d", ad.Year, ad.Price)] = true
				}
			}
			res, _, err := wb.QueryString(fmt.Sprintf(
				"SELECT Make, Model, Year, Price WHERE Make = '%s' AND Model = '%s'", mk, md))
			if len(oracle) == 0 {
				// No ads anywhere: the UR answer must be empty (query still
				// succeeds — empty data pages are data pages).
				if err == nil && res.Relation.Len() != 0 {
					t.Errorf("%s %s: got %d answers, oracle empty", mk, md, res.Relation.Len())
				}
				continue
			}
			if err != nil {
				t.Errorf("%s %s: %v", mk, md, err)
				continue
			}
			if res.Relation.Len() != len(oracle) {
				t.Errorf("%s %s: %d answers, oracle %d", mk, md, res.Relation.Len(), len(oracle))
				continue
			}
			for _, tp := range res.Relation.Tuples() {
				yr, _ := res.Relation.Get(tp, "Year")
				p, _ := res.Relation.Get(tp, "Price")
				if !oracle[fmt.Sprintf("%d|%d", yr.IntVal(), p.IntVal())] {
					t.Errorf("%s %s: answer (%v, %v) not in oracle", mk, md, yr, p)
				}
			}
		}
	}
}

func TestExplain(t *testing.T) {
	wb, _ := newTestWebbase(t)
	q, err := ur.ParseQuery(wb.UR, "SELECT Make, Price, BBPrice WHERE Make = 'jaguar' AND Condition = 'good' AND Price < BBPrice")
	if err != nil {
		t.Fatal(err)
	}
	before := wb.Stats().Pages()
	out, err := wb.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"query: SELECT Make, Price, BBPrice",
		"minimal cover:",
		"classifieds", "dealers", "bluePrice",
		"needs {Make}",
		"⟨", // handle quadruples
		"kellys",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explanation missing %q:\n%s", want, out)
		}
	}
	if wb.Stats().Pages() != before {
		t.Error("Explain must not fetch pages")
	}
	if _, err := wb.Explain(ur.Query{Output: []string{"Nope"}}); err == nil {
		t.Error("bad query should fail to explain")
	}
}

func TestQueryStatsString(t *testing.T) {
	qs := &QueryStats{Pages: 3, Bytes: 100, Elapsed: time.Millisecond}
	if !strings.Contains(qs.String(), "pages=3") {
		t.Error("stats rendering")
	}
}
