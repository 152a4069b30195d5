package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"webbase/internal/algebra"
	"webbase/internal/navcalc"
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

// TestNewRefusesBreakerRatioOutOfRange: a breaker ratio is a fraction of
// a host's fetch outcomes. One outside [0, 1] is refused by name, never
// replaced by another ratio; 0 assembles without a breaker.
func TestNewRefusesBreakerRatioOutOfRange(t *testing.T) {
	world := sites.BuildWorld().Server
	for _, r := range []float64{-0.5, 1.5, math.NaN(), math.Inf(1)} {
		_, err := New(Config{Fetcher: world, Fetch: web.Policy{BreakerRatio: r}})
		if err == nil || !strings.Contains(err.Error(), "Config.Fetch.BreakerRatio") {
			t.Errorf("BreakerRatio %v: err = %v, want one naming Config.Fetch.BreakerRatio", r, err)
		}
	}
	for _, r := range []float64{0, 0.5, 1} {
		wb, err := New(Config{Fetcher: world, Fetch: web.Policy{BreakerRatio: r}})
		if err != nil {
			t.Errorf("BreakerRatio %v refused: %v", r, err)
			continue
		}
		if (wb.Breaker() != nil) != (r > 0) {
			t.Errorf("BreakerRatio %v: breaker installed = %v", r, wb.Breaker() != nil)
		}
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
	res, stats, err := wb.Query(context.Background(), q)
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

// newWorkersWebbase is a webbase over a fresh world evaluating on up to
// workers goroutines.
func newWorkersWebbase(t *testing.T, workers int) *Webbase {
	t.Helper()
	wb, err := New(Config{Fetcher: sites.BuildWorld().Server, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return wb
}

// sweepSites are the ten sites of the paper's Section 7 timing table, the
// relations a PopulateAll sweep reads.
var sweepSites = []string{
	"autoWeb", "wwWheels", "nyTimes", "carReviews", "newYorkDaily",
	"carAndDriver", "autoConnect", "newsday", "yahooCars", "kellys",
}

// TestPopulateAllMatchesSequential: a sweep at Workers 8 reports what the
// same sweep at Workers 1, where every site runs on the calling goroutine
// in order, reports.
func TestPopulateAllMatchesSequential(t *testing.T) {
	rels := sweepSites
	inputs := map[string]relation.Value{
		"Make": relation.String("ford"), "Model": relation.String("escort"),
		"Condition": relation.String("good"),
	}
	par := newWorkersWebbase(t, 8).PopulateAll(context.Background(), rels, inputs)
	seq := newWorkersWebbase(t, 1).PopulateAll(context.Background(), rels, inputs)
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

// TestFigure3Exact pins the Figure 3 signatures byte for byte, as
// experiments_output.txt records them: the eight common WWW data
// structures the webbase's navigation calculus declares, in class-name
// order.
func TestFigure3Exact(t *testing.T) {
	const want = `action[source => web_page; targets =>> string]
attrValPair[attrName => string; type => string; default => string; domain =>> string; maxLength => int]
data_page[extract => string]
follow_link[object => link; source => web_page]
form[name => string; cgi => string; method => string; mandatory =>> attrValPair; optional =>> attrValPair; state =>> attrValPair]
link[name => string; address => string]
submit_form[object => form; source => web_page]
web_page[address => string; title => string; contents => string; actions =>> action]
`
	var sb strings.Builder
	for _, sig := range navcalc.WWWSignatures {
		fmt.Fprintf(&sb, "%s\n", sig)
	}
	if got := sb.String(); got != want {
		t.Errorf("WWWSignatures =\n%s\nwant\n%s", got, want)
	}
}

// TestFigure4Exact pins Figure 4 byte for byte, as experiments_output.txt
// records it: the expression the webbase's newsday relation navigates by,
// which navmap derives from the Newsday map.
func TestFigure4Exact(t *testing.T) {
	const want = `newsday((Make, Model, Year, Price, Contact, Url)) ← visit_newsdayPg
visit_UsedCarPg ← submit(form f1; make=?Make) ⊗ (visit_carData ∨ visit_carPg)
visit_carData ← extract(tuple[Make, Model, Year, Price, Contact, Url]) ⊗ (follow(link "More") ⊗ visit_carData ∨ ε)
visit_carPg ← submit(form f2; model=?Model, featrs=?Featrs) ⊗ visit_carData
visit_newsdayPg ← follow(link "Automobiles") ⊗ visit_UsedCarPg
`
	wb, _ := newTestWebbase(t)
	ri, ok := wb.Registry.Relation("newsday")
	if !ok || len(ri.Handles) == 0 {
		t.Fatal("no newsday handle")
	}
	for _, h := range ri.Handles {
		if got := h.Expr.String(); got != want {
			t.Errorf("newsday%v expression =\n%s\nwant\n%s", h.Mandatory, got, want)
		}
	}
}

// TestPaperArtifactRenderings checks that the layers the webbase assembles
// hold what Tables 1–3, Figure 5 and Example 6.2 show of them.
func TestPaperArtifactRenderings(t *testing.T) {
	wb, _ := newTestWebbase(t)

	var t1, t3 strings.Builder
	for _, ri := range wb.Registry.Relations() {
		fmt.Fprintf(&t1, "%s%v\n", ri.Name, ri.Schema)
		for _, h := range ri.Handles {
			fmt.Fprintf(&t3, "%s %s %s\n", ri.Name, h.Mandatory, h.Selection.Minus(h.Mandatory))
		}
	}
	for _, want := range []string{"kellys", "newsday", "carFinance"} {
		if !strings.Contains(t1.String(), want) {
			t.Errorf("Table 1 relations missing %q", want)
		}
	}
	for _, want := range []string{"kellys", "{Condition, Make, Model}", "{Url}"} {
		if !strings.Contains(t3.String(), want) {
			t.Errorf("Table 3 handles missing %q", want)
		}
	}
	var t2 strings.Builder
	for _, v := range wb.Logical.Views() {
		fmt.Fprintf(&t2, "%s ≡ %s\n", v.Name, v.Def)
	}
	for _, want := range []string{"classifieds", "newsdayCarFeatures", "∪", "dealers", "∪ʳ"} {
		if !strings.Contains(t2.String(), want) {
			t.Errorf("Table 2 views missing %q", want)
		}
	}
	if f5 := wb.UR.Hierarchy.String(); !strings.Contains(f5, "Classifieds [relation]") {
		t.Errorf("Figure 5 hierarchy:\n%s", f5)
	}
	e62, err := ur.Example62()
	if err != nil {
		t.Fatal(err)
	}
	var objects, rules strings.Builder
	for _, o := range e62.MaximalObjects() {
		objects.WriteString(strings.Join(o, " ⋈ ") + "\n")
	}
	for _, r := range e62.Rules {
		fmt.Fprintf(&rules, "%s\n", r)
	}
	if strings.Count(objects.String(), "⋈") != 15 { // 5 objects × 3 joins each
		t.Errorf("Example 6.2 objects wrong:\n%s", objects.String())
	}
	if !strings.Contains(rules.String(), "Lease ⊖ Classifieds") {
		t.Errorf("Example 6.2 constraints missing:\n%s", rules.String())
	}
}

// TestQueryOverFlakyWeb answers correctly over a Web where roughly every
// fourth fetch fails, using retries — the failure-injection test of the
// paper's observation that navigation processes fail and must be coped
// with.
func TestQueryOverFlakyWeb(t *testing.T) {
	w := sites.BuildWorld()
	flaky := &web.Flaky{Inner: w.Server, FailEvery: 4}
	sys, err := New(Config{Fetcher: flaky, Fetch: web.Policy{Retries: 6}})
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
	before := wb.Stats().Get(web.Pages)
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
	if wb.Stats().Get(web.Pages) != before {
		t.Error("Explain must not fetch pages")
	}
	if _, err := wb.Explain(ur.Query{Output: []string{"Nope"}}); err == nil {
		t.Error("bad query should fail to explain")
	}
}

// TestQueryStatsString pins the stats line byte for byte: every field
// set to a distinct value, and the zero value. PrunedByReason is not on
// the line.
func TestQueryStatsString(t *testing.T) {
	full := &QueryStats{
		Pages: 1, Bytes: 2, Elapsed: 3 * time.Millisecond, Simulated: 4 * time.Second,
		CacheHits: 5, Deduped: 6, Reused: 7, LimiterWait: 8 * time.Microsecond,
		PeakInFlight: 9, Retries: 10, StaleServed: 11, BreakerRejects: 12,
		DegradedObjects: 13, AdmissionWait: 14, Hedges: 15, HedgeWins: 16,
		BulkheadSheds: 17, BudgetSheds: 18, HedgesSuppressed: 19, DriftDetected: 20,
		PrunedFetches: 21, PrunedByReason: map[string]int64{"unsat-where": 21},
	}
	for _, tc := range []struct {
		qs   *QueryStats
		want string
	}{
		{full, "pages=1 bytes=2 elapsed=3ms simulated-net=4s cache-hits=5 deduped=6 reused=7 retries=10 stale=11 breaker-rejects=12 degraded-objects=13 peak-inflight=9 limiter-wait=8µs admission-wait=14ns hedges=15 hedge-wins=16 hedges-suppressed=19 bulkhead-shed=17 budget-shed=18 drift-detected=20 pruned=21"},
		{&QueryStats{}, "pages=0 bytes=0 elapsed=0s simulated-net=0s cache-hits=0 deduped=0 reused=0 retries=0 stale=0 breaker-rejects=0 degraded-objects=0 peak-inflight=0 limiter-wait=0s admission-wait=0s hedges=0 hedge-wins=0 hedges-suppressed=0 bulkhead-shed=0 budget-shed=0 drift-detected=0 pruned=0"},
	} {
		if got := tc.qs.String(); got != tc.want {
			t.Errorf("String()\n got %s\nwant %s", got, tc.want)
		}
	}
}
