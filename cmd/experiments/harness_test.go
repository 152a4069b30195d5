package main

import (
	"flag"
	"os"
	"strings"
	"testing"
	"time"

	"webbase"
	"webbase/internal/sites"
	"webbase/internal/web"
)

var update = flag.Bool("update", false, "re-record the deterministic head of experiments_output.txt")

// TestExperimentsOutputHead pins the deterministic artifacts — Tables 1–3,
// Figures 2–5, Example 6.2 and S7a — byte for byte, as the head of
// experiments_output.txt records them, in report order. The wall-clock
// tables after them are left as recorded; -update rewrites only the head.
func TestExperimentsOutputHead(t *testing.T) {
	const file = "../../experiments_output.txt"
	world := sites.BuildWorld()
	wb, err := webbase.New(webbase.Config{Fetcher: world.Server})
	if err != nil {
		t.Fatal(err)
	}
	run := artifacts(world, wb)
	var sb strings.Builder
	for _, name := range deterministicArtifacts {
		out, err := run[name]()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sb.WriteString(out + "\n")
	}
	got := sb.String()

	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	head, tail, ok := strings.Cut(string(data), siteTimingsTitle)
	if !ok {
		t.Fatalf("%s has no timing table (%q)", file, siteTimingsTitle)
	}
	if *update {
		if err := os.WriteFile(file, []byte(got+siteTimingsTitle+tail), 0o644); err != nil {
			t.Fatal(err)
		}
		head = got
	}
	if got != head {
		w, g := strings.Split(head, "\n"), strings.Split(got, "\n")
		for i := 0; i < len(w) && i < len(g); i++ {
			if w[i] != g[i] {
				t.Fatalf("%s line %d (re-record with -update only if the change is meant)\n--- file ---\n%s\n--- rendered ---\n%s", file, i+1, w[i], g[i])
			}
		}
		t.Fatalf("%s head has %d lines, the rendering %d", file, strings.Count(head, "\n"), strings.Count(got, "\n"))
	}
}

func TestSiteTimingsShape(t *testing.T) {
	w := sites.BuildWorld()
	rows, err := siteTimings(w.Server, webbase.DefaultLatency)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := make(map[string]siteTiming)
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
	out := formatSiteTimings(rows)
	if !strings.Contains(out, "newsday") || !strings.Contains(out, "#pages") {
		t.Errorf("format:\n%s", out)
	}
}

func TestParallelSweepSpeedsUp(t *testing.T) {
	w := sites.BuildWorld()
	model := web.LatencyModel{PerRequest: 3 * time.Millisecond}
	rows, err := parallelSweep(w.Server, model, []int{1, 10})
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
	if !strings.Contains(formatParallelSweep(rows), "speedup") {
		t.Error("format")
	}
}

func TestScaledSweep(t *testing.T) {
	model := web.LatencyModel{PerRequest: 2 * time.Millisecond}
	rows, err := scaledSweep(24, model, []int{1, 12})
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

func TestMeasureTimeSplit(t *testing.T) {
	w := sites.BuildWorld()
	ts, err := measureTimeSplit(w.Server, webbase.DefaultLatency)
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
