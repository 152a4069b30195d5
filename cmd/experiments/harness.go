package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"webbase"
	"webbase/internal/algebra"
	"webbase/internal/carmaps"
	"webbase/internal/htmlkit"
	"webbase/internal/navcalc"
	"webbase/internal/navmap"
	"webbase/internal/relation"
	"webbase/internal/sites"
	"webbase/internal/ur"
	"webbase/internal/vps"
	"webbase/internal/web"
)

// This file is the experiment harness: every table and figure of the
// paper's evaluation is regenerated by a function here. See
// EXPERIMENTS.md for the paper-vs-measured record.

// deterministicArtifacts are the artifacts every byte of which follows
// from the code and the simulated Web, in report order:
// experiments_output.txt opens with them. measuredArtifacts read a wall
// clock, and follow them.
var (
	deterministicArtifacts = []string{
		"table1", "table2", "table3",
		"figure2", "figure3", "figure4", "figure5",
		"example6.2", "tablemapstats",
	}
	measuredArtifacts = []string{"tabletimings", "tableparallel", "tablescaled", "tablesplit"}
)

// artifacts returns the renderer of every artifact over world and wb,
// keyed by its flag and the flag's value ("table1", "figure4",
// "example6.2").
func artifacts(world *sites.World, wb *webbase.System) map[string]func() (string, error) {
	return map[string]func() (string, error){
		"table1":     func() (string, error) { return table1(wb), nil },
		"table2":     func() (string, error) { return table2(wb), nil },
		"table3":     func() (string, error) { return table3(wb), nil },
		"figure2":    func() (string, error) { t, d := figure2(); return t + "\n" + d, nil },
		"figure3":    func() (string, error) { return figure3(), nil },
		"figure4":    figure4,
		"figure5":    func() (string, error) { return figure5(wb), nil },
		"example6.2": example62,
		"tablemapstats": func() (string, error) {
			built, err := carmaps.MapStats(world.Server)
			if err != nil {
				return "", err
			}
			out := "Section 7: mapping-by-example automation statistics\n"
			for _, b := range built {
				out += "  " + b.Stats.String() + "\n"
			}
			return out, nil
		},
		"tabletimings": func() (string, error) {
			rows, err := siteTimings(world.Server, webbase.DefaultLatency)
			if err != nil {
				return "", err
			}
			return formatSiteTimings(rows), nil
		},
		"tableparallel": func() (string, error) {
			rows, err := parallelSweep(world.Server, webbase.DefaultLatency, []int{1, 2, 4, 8, 10})
			if err != nil {
				return "", err
			}
			return formatParallelSweep(rows), nil
		},
		"tablescaled": func() (string, error) {
			model := web.LatencyModel{PerRequest: 2 * time.Millisecond}
			out := "Site-count scaling of parallel evaluation (2ms/page, sleeping)\n"
			out += fmt.Sprintf("  %-8s %-8s %12s\n", "sites", "workers", "elapsed")
			for _, n := range []int{10, 25, 50} {
				rows, err := scaledSweep(n, model, []int{1, 16})
				if err != nil {
					return "", err
				}
				for _, r := range rows {
					out += fmt.Sprintf("  %-8d %-8d %12v\n", r.Sites, r.Workers, r.Elapsed.Round(time.Millisecond))
				}
			}
			return out, nil
		},
		"tablesplit": func() (string, error) {
			ts, err := measureTimeSplit(world.Server, webbase.DefaultLatency)
			if err != nil {
				return "", err
			}
			return "Section 7: time split of the newsday ford/escort navigation\n  " + ts.String(), nil
		},
	}
}

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

// table1 renders the VPS-level relations (paper Table 1).
func table1(wb *webbase.System) string {
	var sb strings.Builder
	sb.WriteString("Table 1: VPS Level Relations\n")
	fmt.Fprintf(&sb, "  %-30s %s\n", "Description", "VPS Level Relation")
	for _, ri := range wb.Registry.Relations() {
		fmt.Fprintf(&sb, "  %-30s %s%v\n", vpsDescriptions[ri.Name], ri.Name, ri.Schema)
	}
	return sb.String()
}

// table2 renders the logical relations and their definitions over the VPS
// (paper Table 2).
func table2(wb *webbase.System) string {
	var sb strings.Builder
	sb.WriteString("Table 2: Logical Level Relations\n")
	for _, v := range wb.Logical.Views() {
		sch, _ := wb.Logical.Schema(v.Name)
		fmt.Fprintf(&sb, "  %s%v ≡\n      %s\n", v.Name, sch, v.Def)
	}
	return sb.String()
}

// table3 renders each VPS handle's mandatory and optional attribute sets
// (paper Table 3).
func table3(wb *webbase.System) string {
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

// figure2 renders the Newsday navigation map, textually and as DOT.
func figure2() (text, dot string) {
	m := carmaps.AllMaps()["newsday"]
	return m.String(), m.DOT()
}

// figure3 renders the F-logic signatures of the common WWW data
// structures.
func figure3() string {
	var sb strings.Builder
	sb.WriteString("Figure 3: Common WWW Data Structures (F-logic signatures)\n")
	for _, sig := range navcalc.WWWSignatures {
		fmt.Fprintf(&sb, "  %s\n", sig)
	}
	return sb.String()
}

// figure4 renders the navigation expression derived from the Newsday map —
// the paper's Figure 4, generated automatically rather than hand-written.
func figure4() (string, error) {
	expr, err := navmap.Translate(carmaps.AllMaps()["newsday"])
	if err != nil {
		return "", err
	}
	return "Figure 4: derived navigation process for Newsday\n" + expr.String(), nil
}

// figure5 renders the concept hierarchy of the used-car UR.
func figure5(wb *webbase.System) string {
	return "Figure 5: Concept Hierarchy for the Used Cars UR\n" + wb.UR.Hierarchy.String()
}

// example62 renders the paper's Example 6.2: the compatibility constraints
// and the five maximal objects they generate.
func example62() (string, error) {
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

// timingQueryInputs is the Section 7 per-site query — SELECT make, model,
// year, price WHERE make=ford AND model=escort — expressed as VPS inputs.
// Relations with further mandatory attributes (condition radios and the
// like) receive the extra values a user would supply.
func timingQueryInputs(relationName string) map[string]relation.Value {
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

// timingTableRelations lists the VPS relations of the ten sites in the
// Section 7 timing table, in the paper's row order.
var timingTableRelations = []string{
	"autoWeb", "wwWheels", "nyTimes", "carReviews", "newYorkDaily",
	"carAndDriver", "autoConnect", "newsday", "yahooCars", "kellys",
}

// siteTiming is one row of the Section 7 timing table.
type siteTiming struct {
	Site    string
	Pages   int64
	Tuples  int
	CPU     time.Duration // wall time of navigation + parsing + extraction
	Elapsed time.Duration // CPU plus the simulated network latency
}

// siteTimings reproduces the Section 7 timing table: for each of the ten
// sites, run the ford/escort query and report pages navigated, CPU time
// and elapsed time. The fetcher is built fresh per site over raw (no
// cache, so every page counts) with the latency model applied in
// accounting mode: CPU is measured wall time, and Elapsed adds the
// simulated network latency — preserving the paper's shape (elapsed ≫
// cpu) without actually sleeping.
func siteTimings(raw web.Fetcher, model web.LatencyModel) ([]siteTiming, error) {
	reg, err := vps.StandardRegistry()
	if err != nil {
		return nil, err
	}
	model.Sleep = false
	var out []siteTiming
	for _, name := range timingTableRelations {
		stats := &web.Stats{}
		f := web.WithLatency(web.Counting(raw, stats), model, stats)
		start := time.Now()
		rel, _, err := reg.Populate(context.Background(), f, name, timingQueryInputs(name))
		if err != nil {
			return nil, fmt.Errorf("timing %s: %w", name, err)
		}
		cpu := time.Since(start)
		out = append(out, siteTiming{
			Site:    name,
			Pages:   stats.Get(web.Pages),
			Tuples:  rel.Len(),
			CPU:     cpu,
			Elapsed: cpu + time.Duration(stats.Get(web.Simulated)),
		})
	}
	return out, nil
}

// siteTimingsTitle opens the timing table, the first artifact that reads
// a wall clock.
const siteTimingsTitle = "Section 7: per-site evaluation of SELECT make,model,year,price WHERE make=ford AND model=escort\n"

// formatSiteTimings renders the timing table in the paper's row format.
func formatSiteTimings(rows []siteTiming) string {
	var sb strings.Builder
	sb.WriteString(siteTimingsTitle)
	fmt.Fprintf(&sb, "  %-14s %8s %8s %12s %12s\n", "Site", "#pages", "#tuples", "cpu", "elapsed")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-14s %8d %8d %12v %12v\n",
			r.Site, r.Pages, r.Tuples, r.CPU.Round(time.Microsecond), r.Elapsed.Round(time.Microsecond))
	}
	return sb.String()
}

// parallelTiming is one row of the parallelization experiment. Elapsed
// is a wall clock, to be printed; Pages and PeakInFlight — the most
// fetches ever in the air at once — are the counts that say the same
// thing reproducibly.
type parallelTiming struct {
	Workers      int
	Elapsed      time.Duration
	Pages        int64
	PeakInFlight int64
}

// parallelSweep measures the elapsed time of querying all ten timing-table
// sites with each of workerCounts concurrent workers under a *sleeping*
// latency model — the experiment behind Section 7/9's conclusion that
// "parallelization of query evaluation is crucial for obtaining acceptable
// response times".
func parallelSweep(raw web.Fetcher, model web.LatencyModel, workerCounts []int) ([]parallelTiming, error) {
	model.Sleep = true
	reg, err := vps.StandardRegistry()
	if err != nil {
		return nil, err
	}
	var out []parallelTiming
	for _, workers := range workerCounts {
		stats, f := sweepFetcher(raw, model, workers)
		start := time.Now()
		err := sweep(workers, len(timingTableRelations), func(i int) error {
			name := timingTableRelations[i]
			if _, _, err := reg.Populate(context.Background(), f, name, timingQueryInputs(name)); err != nil {
				return fmt.Errorf("parallel sweep %s: %w", name, err)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, parallelTiming{Workers: workers, Elapsed: time.Since(start),
			Pages: stats.Get(web.Pages), PeakInFlight: stats.PeakInFlight()})
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
	for _, err := range algebra.ForEach(ctx, make([]error, n), fn) {
		if err != nil {
			return err
		}
	}
	return nil
}

// formatParallelSweep renders the parallelization table.
func formatParallelSweep(rows []parallelTiming) string {
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

// timeSplit reports where evaluation time goes — Section 7: "a significant
// portion of the time in querying is spent not only in fetching, but also
// parsing the Web pages". Fetch time is the simulated network latency;
// parse time is measured by re-parsing every fetched body; the remainder
// is extraction and query processing.
type timeSplit struct {
	Fetch time.Duration
	Parse time.Duration
	Other time.Duration
	Pages int64
}

// measureTimeSplit runs the newsday ford/escort navigation and splits its
// cost.
func measureTimeSplit(raw web.Fetcher, model web.LatencyModel) (*timeSplit, error) {
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
	if _, _, err := expr.Execute(context.Background(), f, map[string]string{"Make": "ford", "Model": "escort"}); err != nil {
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
	return &timeSplit{
		Fetch: time.Duration(stats.Get(web.Simulated)),
		Parse: parse,
		Other: other,
		Pages: stats.Get(web.Pages),
	}, nil
}

// String renders the split.
func (ts *timeSplit) String() string {
	return fmt.Sprintf("pages=%d fetch(net)=%v parse=%v other=%v",
		ts.Pages, ts.Fetch.Round(time.Microsecond), ts.Parse.Round(time.Microsecond), ts.Other.Round(time.Microsecond))
}

// scaledSweepResult is one row of the site-count scaling experiment.
type scaledSweepResult struct {
	Sites        int
	Workers      int
	Elapsed      time.Duration
	Pages        int64
	PeakInFlight int64 // see parallelTiming
}

// scaledSweep queries n generated dealer sites (sites.BuildScaledWorld)
// with the given worker counts under a sleeping latency model — the
// paper's parallelization claim pushed past its ten sites. Each site costs
// two page fetches, so sequential elapsed grows linearly with n while
// parallel elapsed stays near (2·latency·n/workers).
func scaledSweep(n int, model web.LatencyModel, workerCounts []int) ([]scaledSweepResult, error) {
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
	var out []scaledSweepResult
	for _, workers := range workerCounts {
		stats, f := sweepFetcher(world.Server, model, workers)
		start := time.Now()
		err := sweep(workers, len(world.Hosts), func(i int) error {
			_, _, err := maps[world.Hosts[i]].Execute(context.Background(), f, inputs)
			return err
		})
		if err != nil {
			return nil, err
		}
		out = append(out, scaledSweepResult{Sites: n, Workers: workers, Elapsed: time.Since(start),
			Pages: stats.Get(web.Pages), PeakInFlight: stats.PeakInFlight()})
	}
	return out, nil
}
