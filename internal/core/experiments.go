package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"webbase/internal/algebra"
	"webbase/internal/carmaps"
	"webbase/internal/htmlkit"
	"webbase/internal/mapbuilder"
	"webbase/internal/navcalc"
	"webbase/internal/navmap"
	"webbase/internal/relation"
	"webbase/internal/sites"
	"webbase/internal/ur"
	"webbase/internal/vps"
	"webbase/internal/web"
)

// This file is the experiment harness: every table and figure of the
// paper's evaluation is regenerated by a function here, consumed by
// cmd/experiments and by the benchmark suite. See EXPERIMENTS.md for the
// paper-vs-measured record.

// vpsDescriptions labels Table 1's rows.
var vpsDescriptions = map[string]string{
	"newsday":            "Used Car Ads",
	"newsdayCarFeatures": "Used Car Ads (features page)",
	"nyTimes":            "Used Car Ads",
	"newYorkDaily":       "Used Car Ads",
	"carPoint":           "Dealer Cars",
	"autoWeb":            "Dealer Cars",
	"wwWheels":           "Dealer Cars",
	"autoConnect":        "Dealer Cars",
	"yahooCars":          "Dealer Cars",
	"kellys":             "Blue Book Prices",
	"carAndDriver":       "Safety Ratings",
	"carReviews":         "Reliability Reviews",
	"carFinance":         "Interest Rates",
}

// Table1 renders the VPS-level relations (paper Table 1).
func (wb *Webbase) Table1() string {
	var sb strings.Builder
	sb.WriteString("Table 1: VPS Level Relations\n")
	fmt.Fprintf(&sb, "  %-30s %s\n", "Description", "VPS Level Relation")
	for _, ri := range wb.Registry.Relations() {
		fmt.Fprintf(&sb, "  %-30s %s%v\n", vpsDescriptions[ri.Name], ri.Name, ri.Schema)
	}
	return sb.String()
}

// Table2 renders the logical relations and their definitions over the VPS
// (paper Table 2).
func (wb *Webbase) Table2() string {
	var sb strings.Builder
	sb.WriteString("Table 2: Logical Level Relations\n")
	for _, v := range wb.Logical.Views() {
		sch, _ := wb.Logical.Schema(v.Name)
		fmt.Fprintf(&sb, "  %s%v ≡\n      %s\n", v.Name, sch, v.Def)
	}
	return sb.String()
}

// Table3 renders each VPS handle's mandatory and optional attribute sets
// (paper Table 3).
func (wb *Webbase) Table3() string {
	var sb strings.Builder
	sb.WriteString("Table 3: Virtual Physical Schema handles\n")
	fmt.Fprintf(&sb, "  %-45s %-28s %s\n", "VPS relation", "Mandatory", "Optional")
	for _, ri := range wb.Registry.Relations() {
		for _, h := range ri.Handles {
			optional := h.Selection.Minus(h.Mandatory)
			fmt.Fprintf(&sb, "  %-45s %-28s %s\n",
				ri.Name+ri.Schema.String(), h.Mandatory.String(), optional.String())
		}
	}
	return sb.String()
}

// Figure2 renders the Newsday navigation map, textually and as DOT.
func Figure2() (text, dot string) {
	m := carmaps.AllMaps()["newsday"]
	return m.String(), m.DOT()
}

// Figure3 renders the F-logic signatures of the common WWW data
// structures.
func Figure3() string {
	var sb strings.Builder
	sb.WriteString("Figure 3: Common WWW Data Structures (F-logic signatures)\n")
	for _, sig := range navcalc.WWWSignatures {
		fmt.Fprintf(&sb, "  %s\n", sig)
	}
	return sb.String()
}

// Figure4 renders the navigation expression derived from the Newsday map —
// the paper's Figure 4, generated automatically rather than hand-written.
func Figure4() (string, error) {
	expr, err := navmap.Translate(carmaps.AllMaps()["newsday"])
	if err != nil {
		return "", err
	}
	return "Figure 4: derived navigation process for Newsday\n" + expr.String(), nil
}

// Figure5 renders the concept hierarchy of the used-car UR.
func (wb *Webbase) Figure5() string {
	return "Figure 5: Concept Hierarchy for the Used Cars UR\n" + wb.UR.Hierarchy.String()
}

// Example62 renders the paper's Example 6.2: the compatibility constraints
// and the five maximal objects they generate.
func Example62() (string, error) {
	s, err := ur.Example62()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Example 6.2: compatibility constraints and maximal objects\n")
	sb.WriteString("  Constraints:\n")
	for _, r := range s.Rules {
		fmt.Fprintf(&sb, "    %s\n", r)
	}
	sb.WriteString("  Maximal objects:\n")
	for _, o := range s.MaximalObjects() {
		fmt.Fprintf(&sb, "    %s\n", strings.Join(o, " ⋈ "))
	}
	return sb.String(), nil
}

// MapStats replays the mapping-by-example sessions for every site and
// reports the Section 7 automation statistics (Newsday: "85 objects with
// over 600 attributes ... less than 5% added manually").
func MapStats(f web.Fetcher) ([]*mapbuilder.Stats, error) {
	featURL, err := carmaps.SampleFeaturesURL(f)
	if err != nil {
		return nil, err
	}
	b := &mapbuilder.Builder{Fetcher: f}
	var out []*mapbuilder.Stats
	for _, s := range carmaps.Sessions(featURL) {
		_, stats, err := b.Build(s)
		if err != nil {
			return nil, fmt.Errorf("core: mapping %s: %w", s.Relation, err)
		}
		out = append(out, stats)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out, nil
}

// TimingQueryInputs is the Section 7 per-site query — SELECT make, model,
// year, price WHERE make=ford AND model=escort — expressed as VPS inputs.
// Relations with further mandatory attributes (condition radios and the
// like) receive the extra values a user would supply.
func TimingQueryInputs(relationName string) map[string]relation.Value {
	in := map[string]relation.Value{
		"Make":  relation.String("ford"),
		"Model": relation.String("escort"),
	}
	switch relationName {
	case "autoConnect", "kellys":
		in["Condition"] = relation.String("good")
	case "carFinance":
		in["ZipCode"] = relation.String("11201")
	}
	return in
}

// TimingTableRelations lists the VPS relations of the ten sites in the
// Section 7 timing table, in the paper's row order.
var TimingTableRelations = []string{
	"autoWeb", "wwWheels", "nyTimes", "carReviews", "newYorkDaily",
	"carAndDriver", "autoConnect", "newsday", "yahooCars", "kellys",
}

// SiteTiming is one row of the Section 7 timing table.
type SiteTiming struct {
	Site    string
	Pages   int64
	Tuples  int
	CPU     time.Duration // wall time of navigation + parsing + extraction
	Elapsed time.Duration // CPU plus the simulated network latency
}

// SiteTimings reproduces the Section 7 timing table: for each of the ten
// sites, run the ford/escort query and report pages navigated, CPU time
// and elapsed time. The fetcher is built fresh per site over raw (no
// cache, so every page counts) with the latency model applied in
// accounting mode: CPU is measured wall time, and Elapsed adds the
// simulated network latency — preserving the paper's shape (elapsed ≫
// cpu) without actually sleeping.
func SiteTimings(raw web.Fetcher, model web.LatencyModel) ([]SiteTiming, error) {
	reg, err := vps.StandardRegistry()
	if err != nil {
		return nil, err
	}
	model.Sleep = false
	var out []SiteTiming
	for _, name := range TimingTableRelations {
		stats := &web.Stats{}
		f := web.WithLatency(web.Counting(raw, stats), model, stats)
		start := time.Now()
		rel, _, err := reg.Populate(f, name, TimingQueryInputs(name))
		if err != nil {
			return nil, fmt.Errorf("core: timing %s: %w", name, err)
		}
		cpu := time.Since(start)
		out = append(out, SiteTiming{
			Site:    name,
			Pages:   stats.Pages(),
			Tuples:  rel.Len(),
			CPU:     cpu,
			Elapsed: cpu + stats.SimulatedLatency(),
		})
	}
	return out, nil
}

// FormatSiteTimings renders the timing table in the paper's row format.
func FormatSiteTimings(rows []SiteTiming) string {
	var sb strings.Builder
	sb.WriteString("Section 7: per-site evaluation of SELECT make,model,year,price WHERE make=ford AND model=escort\n")
	fmt.Fprintf(&sb, "  %-14s %8s %8s %12s %12s\n", "Site", "#pages", "#tuples", "cpu", "elapsed")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-14s %8d %8d %12v %12v\n",
			r.Site, r.Pages, r.Tuples, r.CPU.Round(time.Microsecond), r.Elapsed.Round(time.Microsecond))
	}
	return sb.String()
}

// ParallelTiming is one row of the parallelization experiment. Elapsed
// is a wall clock, to be printed; Pages and PeakInFlight — the most
// fetches ever in the air at once — are the counts that say the same
// thing reproducibly.
type ParallelTiming struct {
	Workers      int
	Elapsed      time.Duration
	Pages        int64
	PeakInFlight int64
}

// ParallelSweep measures the elapsed time of querying all ten timing-table
// sites with 1..maxWorkers concurrent workers under a *sleeping* latency
// model — the experiment behind Section 7/9's conclusion that
// "parallelization of query evaluation is crucial for obtaining acceptable
// response times".
func ParallelSweep(raw web.Fetcher, model web.LatencyModel, workerCounts []int) ([]ParallelTiming, error) {
	model.Sleep = true
	reg, err := vps.StandardRegistry()
	if err != nil {
		return nil, err
	}
	var out []ParallelTiming
	for _, workers := range workerCounts {
		stats, f := sweepFetcher(raw, model, workers)
		start := time.Now()
		err := sweep(workers, len(TimingTableRelations), func(i int) error {
			name := TimingTableRelations[i]
			if _, _, err := reg.Populate(f, name, TimingQueryInputs(name)); err != nil {
				return fmt.Errorf("core: parallel sweep %s: %w", name, err)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, ParallelTiming{Workers: workers, Elapsed: time.Since(start),
			Pages: stats.Pages(), PeakInFlight: stats.PeakInFlight()})
	}
	return out, nil
}

// sweepFetcher is a sweep's fetch stack over raw: counted, slowed by the
// latency model, and under a bulkhead as wide as the sweep, which sheds
// nothing and queues nothing — it is there to count what is in flight
// above the sleep.
func sweepFetcher(raw web.Fetcher, model web.LatencyModel, workers int) (*web.Stats, web.Fetcher) {
	stats := &web.Stats{}
	return stats, web.WithBulkhead(web.WithLatency(web.Counting(raw, stats), model, stats), workers, 0, stats)
}

// sweep runs fn(0..n-1) on up to workers goroutines — the bounded fan-out
// query evaluation uses — and returns the lowest-index error.
func sweep(workers, n int, fn func(i int) error) error {
	ctx := algebra.WithPool(context.Background(), algebra.NewPool(workers))
	for _, err := range algebra.ForEach(ctx, n, fn) {
		if err != nil {
			return err
		}
	}
	return nil
}

// FormatParallelSweep renders the parallelization table.
func FormatParallelSweep(rows []ParallelTiming) string {
	var sb strings.Builder
	sb.WriteString("Parallel evaluation of all 10 sites (simulated network, sleeping)\n")
	fmt.Fprintf(&sb, "  %-8s %12s %9s\n", "workers", "elapsed", "speedup")
	base := time.Duration(0)
	for i, r := range rows {
		if i == 0 {
			base = r.Elapsed
		}
		speedup := float64(base) / float64(r.Elapsed)
		fmt.Fprintf(&sb, "  %-8d %12v %8.2fx\n", r.Workers, r.Elapsed.Round(time.Millisecond), speedup)
	}
	return sb.String()
}

// TimeSplit reports where evaluation time goes — Section 7: "a significant
// portion of the time in querying is spent not only in fetching, but also
// parsing the Web pages". Fetch time is the simulated network latency;
// parse time is measured by re-parsing every fetched body; the remainder
// is extraction and query processing.
type TimeSplit struct {
	Fetch time.Duration
	Parse time.Duration
	Other time.Duration
	Pages int64
}

// MeasureTimeSplit runs the newsday ford/escort navigation and splits its
// cost.
func MeasureTimeSplit(raw web.Fetcher, model web.LatencyModel) (*TimeSplit, error) {
	stats := &web.Stats{}
	var bodies [][]byte
	recorder := web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		resp, err := raw.Fetch(req)
		if err == nil {
			bodies = append(bodies, resp.Body)
		}
		return resp, err
	})
	model.Sleep = false
	f := web.WithLatency(web.Counting(recorder, stats), model, stats)

	expr, err := navmap.Translate(carmaps.AllMaps()["newsday"])
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if _, _, err := expr.Execute(f, map[string]string{"Make": "ford", "Model": "escort"}); err != nil {
		return nil, err
	}
	total := time.Since(start)

	parseStart := time.Now()
	for _, b := range bodies {
		htmlkit.Parse(b)
	}
	parse := time.Since(parseStart)
	other := total - parse
	if other < 0 {
		other = 0
	}
	return &TimeSplit{
		Fetch: stats.SimulatedLatency(),
		Parse: parse,
		Other: other,
		Pages: stats.Pages(),
	}, nil
}

// String renders the split.
func (ts *TimeSplit) String() string {
	return fmt.Sprintf("pages=%d fetch(net)=%v parse=%v other=%v",
		ts.Pages, ts.Fetch.Round(time.Microsecond), ts.Parse.Round(time.Microsecond), ts.Other.Round(time.Microsecond))
}

// ScaledSweepResult is one row of the site-count scaling experiment.
type ScaledSweepResult struct {
	Sites        int
	Workers      int
	Elapsed      time.Duration
	Pages        int64
	PeakInFlight int64 // see ParallelTiming
}

// ScaledSweep queries n generated dealer sites (sites.BuildScaledWorld)
// with the given worker counts under a sleeping latency model — the
// paper's parallelization claim pushed past its ten sites. Each site costs
// two page fetches, so sequential elapsed grows linearly with n while
// parallel elapsed stays near (2·latency·n/workers).
func ScaledSweep(n int, model web.LatencyModel, workerCounts []int) ([]ScaledSweepResult, error) {
	world := sites.BuildScaledWorld(n)
	model.Sleep = true

	// One navigation map shape serves every generated host.
	maps := make(map[string]*navcalc.Expression, n)
	for _, host := range world.Hosts {
		m := navmap.New(host, "http://"+host+"/",
			relation.NewSchema("Make", "Model", "Year", "Price", "Features", "ZipCode", "Contact"))
		m.AddNode(&navmap.Node{ID: "home"})
		m.AddNode(&navmap.Node{ID: "data", IsData: true, Extract: navcalc.ExtractSpec{
			Columns: []navcalc.Column{
				{Header: "Make", Attr: "Make"}, {Header: "Model", Attr: "Model"},
				{Header: "Year", Attr: "Year"}, {Header: "Price", Attr: "Price", Money: true},
				{Header: "Features", Attr: "Features"}, {Header: "ZipCode", Attr: "ZipCode"},
				{Header: "Contact", Attr: "Contact"},
			}}})
		m.AddEdge("home", navmap.Action{Kind: navmap.ActSubmitForm, FormName: "q",
			Fills: []navcalc.FieldFill{navcalc.Fill("make", "Make"), navcalc.Fill("model", "Model")}}, "data")
		expr, err := navmap.Translate(m)
		if err != nil {
			return nil, err
		}
		maps[host] = expr
	}

	inputs := map[string]string{"Make": "ford", "Model": "escort"}
	var out []ScaledSweepResult
	for _, workers := range workerCounts {
		stats, f := sweepFetcher(world.Server, model, workers)
		start := time.Now()
		err := sweep(workers, len(world.Hosts), func(i int) error {
			_, _, err := maps[world.Hosts[i]].Execute(f, inputs)
			return err
		})
		if err != nil {
			return nil, err
		}
		out = append(out, ScaledSweepResult{Sites: n, Workers: workers, Elapsed: time.Since(start),
			Pages: stats.Pages(), PeakInFlight: stats.PeakInFlight()})
	}
	return out, nil
}

// DefaultLatency is the latency model the experiment harness uses: a few
// milliseconds per request plus per-KB transfer time and deterministic
// per-URL jitter — 1998 dial-up shrunk by three orders of magnitude so the
// suite stays fast while preserving the elapsed ≫ cpu shape.
var DefaultLatency = web.LatencyModel{
	PerRequest: 4 * time.Millisecond,
	PerKB:      1 * time.Millisecond,
	Jitter:     3 * time.Millisecond,
}
