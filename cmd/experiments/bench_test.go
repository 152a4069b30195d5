// Benchmarks of the experiment harness: T1, S7b and S7c of DESIGN.md's
// per-experiment index, each noted on its benchmark.

package main

import (
	"context"
	"fmt"
	"testing"
	"time"

	"webbase/internal/sites"
	"webbase/internal/vps"
	"webbase/internal/web"
)

// T1 — Table 1: populating every VPS relation once (navigation +
// extraction cost per relation).
func BenchmarkTable1VPSPopulate(b *testing.B) {
	world := sites.BuildWorld()
	reg, err := vps.StandardRegistry()
	if err != nil {
		b.Fatal(err)
	}
	for _, ri := range reg.Relations() {
		name := ri.Name
		if name == "newsdayCarFeatures" {
			continue // needs a live Url; covered in the newsday bench path
		}
		b.Run(name, func(b *testing.B) {
			inputs := timingQueryInputs(name)
			for i := 0; i < b.N; i++ {
				if _, _, err := reg.Populate(context.Background(), world.Server, name, inputs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// S7b — the Section 7 timing table: per-site evaluation of
// SELECT make, model, year, price WHERE make=ford AND model=escort.
// b.ReportMetric carries the pages-navigated column.
func BenchmarkTableSiteTimings(b *testing.B) {
	world := sites.BuildWorld()
	reg, err := vps.StandardRegistry()
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range timingTableRelations {
		name := name
		b.Run(name, func(b *testing.B) {
			inputs := timingQueryInputs(name)
			var pages int64
			for i := 0; i < b.N; i++ {
				stats := &web.Stats{}
				f := web.Counting(world.Server, stats)
				if _, _, err := reg.Populate(context.Background(), f, name, inputs); err != nil {
					b.Fatal(err)
				}
				pages = stats.Get(web.Pages)
			}
			b.ReportMetric(float64(pages), "pages")
		})
	}
}

// S7c — parallelization: all ten timing-table sites under a sleeping
// network model, swept over worker counts. Elapsed time is the metric;
// the paper's conclusion is the 1→10 worker drop.
func BenchmarkParallelEvaluation(b *testing.B) {
	world := sites.BuildWorld()
	model := web.LatencyModel{PerRequest: 2 * time.Millisecond, Sleep: true}
	for _, workers := range []int{1, 2, 4, 8, 10} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := parallelSweep(world.Server, model, []int{workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// S7c extension — site-count scaling: the parallel sweep over generated
// homogeneous dealer fleets, past the paper's ten sites.
func BenchmarkScaledSweep(b *testing.B) {
	model := web.LatencyModel{PerRequest: 2 * time.Millisecond}
	for _, n := range []int{10, 25, 50} {
		for _, workers := range []int{1, 16} {
			b.Run(fmt.Sprintf("sites=%d/workers=%d", n, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := scaledSweep(n, model, []int{workers}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
