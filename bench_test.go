// Benchmarks of the ablations DESIGN.md calls out, plus the map builder's
// S7a statistics. Each benchmark notes the experiment id from DESIGN.md's
// per-experiment index. The benchmarks of the experiment harness itself
// (T1, S7b, S7c) sit beside it, in cmd/experiments.
//
// What is kept here is what EXPERIMENTS.md cites for a paper table or an
// ablation, plus BenchmarkPrunedQuery, whose metrics are page counts and
// so repeat exactly. How fast a query runs end to end — cold, warm, joined,
// served, resumed — is measured by `go run ./bench` at zero simulated
// latency, not here: a benchmark over those paths with latency on would
// time the simulated sleep.
package webbase_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"webbase"
	"webbase/internal/algebra"
	"webbase/internal/carmaps"
	"webbase/internal/htmlkit"
	"webbase/internal/navcalc"
	"webbase/internal/navmap"
	"webbase/internal/relation"
	"webbase/internal/sites"
	"webbase/internal/ur"
	"webbase/internal/web"
)

// S7a — Section 7 map-builder statistics: replaying all mapping-by-example
// sessions. Metrics carry the Newsday objects/attributes counts.
func BenchmarkMapBuilder(b *testing.B) {
	world := sites.BuildWorld()
	var newsdayObjects, newsdayAttrs, manualPct float64
	for i := 0; i < b.N; i++ {
		built, err := carmaps.MapStats(world.Server)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range built {
			if s := m.Stats; s.Site == "newsday" {
				newsdayObjects = float64(s.Objects)
				newsdayAttrs = float64(s.Attributes)
				manualPct = 100 * s.ManualRatio()
			}
		}
	}
	b.ReportMetric(newsdayObjects, "newsday-objects")
	b.ReportMetric(newsdayAttrs, "newsday-attrs")
	b.ReportMetric(manualPct, "manual-%")
}

// A3 — caching ablation: the same query cold (every page fetched) vs warm
// (every page from cache).
func BenchmarkCacheEffect(b *testing.B) {
	world := sites.BuildWorld()
	query := "SELECT Make, Model, Year, Price WHERE Make = 'ford' AND Model = 'escort'"

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sys, err := webbase.New(webbase.Config{Fetcher: world.Server})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, _, err := sys.QueryString(query); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		sys, err := webbase.New(webbase.Config{Fetcher: world.Server})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := sys.QueryString(query); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := sys.QueryString(query); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// S7d — fetch vs parse split: parsing throughput over the actual site
// corpus, the cost Section 7 singles out next to fetching.
func BenchmarkParseVsFetch(b *testing.B) {
	world := sites.BuildWorld()
	// Collect a corpus: every page of a full newsday navigation.
	var bodies [][]byte
	recorder := web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		resp, err := world.Server.Fetch(req)
		if err == nil {
			bodies = append(bodies, resp.Body)
		}
		return resp, err
	})
	expr, err := navmap.Translate(carmaps.AllMaps()["newsday"])
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := expr.Execute(context.Background(), recorder, map[string]string{"Make": "ford"}); err != nil {
		b.Fatal(err)
	}
	var total int
	for _, body := range bodies {
		total += len(body)
	}

	b.Run("fetch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := expr.Execute(context.Background(), world.Server, map[string]string{"Make": "ford"}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parse", func(b *testing.B) {
		b.SetBytes(int64(total))
		for i := 0; i < b.N; i++ {
			for _, body := range bodies {
				htmlkit.Parse(body)
			}
		}
	})
}

// A1 — join ordering ablation: the complete greedy closure vs the
// exhaustive min-cost planner over growing join chains
// R1(A1) ⋈ R2(A1→A2) ⋈ ... where each Ri's binding needs its
// predecessor's attribute.
func BenchmarkJoinOrdering(b *testing.B) {
	buildChain := func(n int) []algebra.Operand {
		ops := make([]algebra.Operand, n)
		for i := 0; i < n; i++ {
			ops[i] = algebra.Operand{
				Name:     fmt.Sprintf("r%d", i),
				Schema:   relation.NewSchema(fmt.Sprintf("A%d", i), fmt.Sprintf("A%d", i+1)),
				Bindings: []relation.AttrSet{relation.NewAttrSet(fmt.Sprintf("A%d", i))},
			}
		}
		// Reverse so the planner has to discover the chain order.
		for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
			ops[i], ops[j] = ops[j], ops[i]
		}
		return ops
	}
	for _, n := range []int{4, 8, 12, 16} {
		ops := buildChain(n)
		bound := relation.NewAttrSet("A0")
		b.Run(fmt.Sprintf("greedy/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := algebra.GreedyOrder(ops, bound); err != nil {
					b.Fatal(err)
				}
			}
		})
		if n <= 16 {
			b.Run(fmt.Sprintf("mincost/n=%d", n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := algebra.MinCostOrder(ops, bound, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// A2 — linear-time map→expression translation: translation time against
// map size (a chain of n pages ending in a data node).
func BenchmarkTranslateLinear(b *testing.B) {
	buildMap := func(n int) *navmap.Map {
		m := navmap.New("chain", "http://x/", relation.NewSchema("A"))
		for i := 0; i < n; i++ {
			id := navmap.NodeID(fmt.Sprintf("n%d", i))
			node := &navmap.Node{ID: id}
			if i == n-1 {
				node.IsData = true
				node.Extract = navcalc.ExtractSpec{Columns: []navcalc.Column{{Header: "A", Attr: "A"}}}
			}
			m.AddNode(node)
			if i > 0 {
				m.AddEdge(navmap.NodeID(fmt.Sprintf("n%d", i-1)),
					navmap.Action{Kind: navmap.ActFollowLink, LinkName: fmt.Sprintf("l%d", i)}, id)
			}
		}
		return m
	}
	for _, n := range []int{10, 100, 1000} {
		m := buildMap(n)
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := navmap.Translate(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// A4 — faulty-HTML recovery: lenient parsing throughput on well-formed vs
// deliberately malformed markup.
func BenchmarkLenientParse(b *testing.B) {
	clean := []byte(strings.Repeat(
		`<tr><td>ford</td><td>escort</td><td>1994</td><td>$3,000</td></tr>`, 200))
	sloppy := []byte(strings.Repeat(
		`<TR><td>ford<td>escort<td>1994<td>$3,000 &amp junk <a href='x`, 200))
	b.Run("wellformed", func(b *testing.B) {
		b.SetBytes(int64(len(clean)))
		for i := 0; i < b.N; i++ {
			htmlkit.Parse(clean)
		}
	})
	b.Run("malformed", func(b *testing.B) {
		b.SetBytes(int64(len(sloppy)))
		for i := 0; i < b.N; i++ {
			htmlkit.Parse(sloppy)
		}
	})
}

// E62 — maximal-object enumeration cost for the paper's Example 6.2
// configuration and for the operational UsedCarUR.
func BenchmarkMaximalObjects(b *testing.B) {
	ex, err := ur.Example62()
	if err != nil {
		b.Fatal(err)
	}
	rels := ex.Hierarchy.Relations()
	b.Run("example6.2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ur.MaximalObjects(rels, ex.Rules)
		}
	})
	op, err := ur.UsedCarUR()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("usedcarur", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ur.MaximalObjects(op.Hierarchy.Relations(), op.Rules)
		}
	})
}

// Optimizer ablation: rewrite cost of the headline query's plan
// expressions, and the whole headline query with and without the rewrite
// (the optimizer is structural; evaluation-time constant pushing keeps the
// page counts equal, so the interesting metric is that optimize adds only
// microseconds).
func BenchmarkOptimize(b *testing.B) {
	world := sites.BuildWorld()
	sys, err := webbase.New(webbase.Config{Fetcher: world.Server})
	if err != nil {
		b.Fatal(err)
	}
	q, err := ur.ParseQuery(sys.UR, "SELECT Make, Price WHERE Make = 'jaguar' AND Year >= 1993 AND Price < BBPrice AND Condition = 'good'")
	if err != nil {
		b.Fatal(err)
	}
	plan, err := sys.UR.Plan(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, obj := range plan.Objects {
			algebra.Optimize(obj.Expr, sys.Logical)
		}
	}
}

// Binding propagation over the standard logical views (the static
// derivation Section 5 performs at design time).
func BenchmarkBindingPropagation(b *testing.B) {
	world := sites.BuildWorld()
	sys, err := webbase.New(webbase.Config{Fetcher: world.Server})
	if err != nil {
		b.Fatal(err)
	}
	views := sys.Logical.Views()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range views {
			if _, err := sys.Logical.Bindings(v.Name); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// R3 — access-relevance pruning: the paper's headline query with a LIMIT,
// pruning off vs on (Workers=1 so the fetch counts are deterministic,
// cache disabled via a fresh system per iteration so every run pays its
// own fetches). With pruning on, statically doomed WHERE combinations are
// skipped pre-fetch and the second plan-order object is never launched
// once the LIMIT is provably satisfied; the metrics carry the page counts
// and pruned-access counts for both modes.
func BenchmarkPrunedQuery(b *testing.B) {
	world := sites.BuildWorld()
	query := "SELECT Make, Model, Year, Price, BBPrice, Contact WHERE Make = 'jaguar' AND Year >= 1993 " +
		"AND Safety = 'good' AND Condition = 'good' AND Price < BBPrice LIMIT 3"
	run := func(b *testing.B, prune bool) {
		var pages, pruned, tuples float64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sys, err := webbase.New(webbase.Config{Fetcher: world.Server, Workers: 1, Prune: prune})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			res, qs, err := sys.QueryString(query)
			if err != nil {
				b.Fatal(err)
			}
			pages = float64(qs.Pages)
			pruned = float64(qs.PrunedFetches)
			tuples = float64(res.Relation.Len())
		}
		b.ReportMetric(pages, "pages")
		b.ReportMetric(pruned, "pruned")
		b.ReportMetric(tuples, "tuples")
	}
	b.Run("prune-off", func(b *testing.B) { run(b, false) })
	b.Run("prune-on", func(b *testing.B) { run(b, true) })
}
