package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// selfcheck asks whether the benchmark can tell a regression from its own
// noise on this host: two sets of five full runs of the same binary,
// interleaved A B A B…, every run on another seed. Per workload × metric
// it prints the two set medians, their gap, the inter-quartile spread and
// the range of all ten runs, and the bound. A row fails when the gap or the
// inter-quartile spread exceeds half its bound: bounds are kept at least
// twice the largest gap seen, and the driver's own limit on the spread is
// the whole bound. A range above a tenth of the median is flagged, not
// failed: it is the threshold the issue set for demoting a metric, and on
// a host that can halve its speed for one run in twenty a range measures
// the host (README.md says which rows exceed it and why they stay).
func selfcheck(o options) error {
	const perSet = 5
	type key struct{ workload, metric string }
	values := [2]map[key][]float64{{}, {}}
	var reports []*report
	for i := 0; i < perSet; i++ {
		for set := 0; set < 2; set++ {
			run := o
			run.seed = o.seed + int64(2*i+set)
			for _, w := range selected(o) {
				rep, err := measure(w, run)
				if err != nil {
					return err
				}
				if rep.Failed > 0 {
					return fmt.Errorf("%s seed %d: %d of %d operations failed: %v",
						w.Name, run.seed, rep.Failed, rep.Attempted, rep.Failures)
				}
				reports = append(reports, rep)
				for _, s := range endToEnd {
					k := key{w.Name, s.Name}
					values[set][k] = append(values[set][k], rep.Metrics[s.Name])
				}
				fmt.Fprintf(os.Stderr, "selfcheck: set %c run %d/%d %s done\n", 'A'+set, i+1, perSet, w.Name)
			}
		}
	}

	fmt.Printf("\n%-13s %-22s %12s %12s %7s %7s %7s %6s  %s\n",
		"workload", "metric", "median A", "median B", "gap", "iqr", "range", "bound", "verdict")
	failed := 0
	for _, w := range selected(o) {
		for _, s := range endToEnd {
			a, b := values[0][key{w.Name, s.Name}], values[1][key{w.Name, s.Name}]
			all := append(append([]float64(nil), a...), b...)
			sort.Float64s(all)
			ma, mb, mid := median(a), median(b), median(all)
			gap := math.Abs(mb-ma) / ma
			spread, span := iqr(all)/mid, (all[len(all)-1]-all[0])/mid
			verdict := "PASS"
			if gap > s.Bound/2 || spread > s.Bound/2 {
				verdict = "FAIL"
				failed++
			}
			if span > 0.10 {
				verdict += " (range > 10%)"
			}
			fmt.Printf("%-13s %-22s %12.4f %12.4f %6.2f%% %6.2f%% %6.2f%% %5.0f%%  %s\n",
				w.Name, s.Name, ma, mb, 100*gap, 100*spread, 100*span, 100*s.Bound, verdict)
		}
	}
	fmt.Println("gap = |median B − median A| / median A; iqr = (Q3 − Q1) / median and range = (max − min) / median over all ten runs")

	f, err := os.CreateTemp(o.out, "webbase-bench-selfcheck-*.json")
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(reports); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Println("runs:", f.Name())
	if failed > 0 {
		return fmt.Errorf("selfcheck: %d rows failed", failed)
	}
	return nil
}

// iqr is the distance between the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method).
func iqr(sorted []float64) float64 {
	q := func(i int) float64 {
		pos := float64(i*(len(sorted)+1)) / 4
		j := int(pos)
		switch {
		case j < 1:
			return sorted[0]
		case j >= len(sorted):
			return sorted[len(sorted)-1]
		}
		return sorted[j-1] + (sorted[j]-sorted[j-1])*(pos-float64(j))
	}
	return q(3) - q(1)
}
