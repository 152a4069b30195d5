package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// tiny runs one workload in-process on a three-query deck, two rounds of
// one pass: the whole path in a fraction of a second.
func tiny(t *testing.T, name string, trace bool) *report {
	t.Helper()
	spec, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	rep, err := runWorkload(runConfig{spec: spec, seed: 3, rounds: 2, passes: 1, yards: 1, deckLimit: 3,
		trace: trace, out: t.TempDir(), started: time.Now()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%s: attempted %d, failed %d: %v", name, rep.Attempted, rep.Failed, rep.Failures)
	}
	return rep
}

func TestEveryWorkloadReportsEveryEndToEndMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			rep := tiny(t, w.Name, false)
			for _, s := range endToEnd {
				v, ok := rep.Metrics[s.Name]
				if !ok || s.Unit == "" {
					t.Errorf("%s: metric %s missing or without unit", w.Name, s.Name)
				}
				if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: %s = %v, want a positive number", w.Name, s.Name, v)
				}
			}
			if want := 2 * 3; rep.Attempted != want {
				t.Errorf("%s: attempted %d operations, want the fixed count %d", w.Name, rep.Attempted, want)
			}
			line := resultLine(rep, endToEnd)
			var got struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(line), &got); err != nil {
				t.Fatalf("%s: result line: %v", w.Name, err)
			}
			if !got.Correct || got.Attempted != rep.Attempted || len(got.Metrics) != len(endToEnd) {
				t.Errorf("%s: result line %s", w.Name, line)
			}
		})
	}
}

func TestTracedPassReportsEveryLayerMetric(t *testing.T) {
	applies := func(w workloadSpec, name string) bool {
		switch {
		case strings.HasPrefix(name, "sites."), name == "web.network_pages":
			return w.Cold
		case strings.HasPrefix(name, "server."), strings.HasPrefix(name, "client."), strings.HasPrefix(name, "http."):
			return w.Served && (w.Sever || !strings.Contains(name, "resume") && name != "server.reexec_ms")
		}
		return true
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			rep := tiny(t, w.Name, true)
			for _, s := range perLayer {
				v, ok := rep.Metrics[s.Name]
				if !ok || s.Unit == "" || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: layer metric %s missing, without unit or not a number (%v)", w.Name, s.Name, v)
				}
				zeroOK := !applies(w, s.Name) || s.Name == "web.deduped" || s.Name == "core.admission_wait_ms" ||
					s.Name == "trace.overhead_pct" || s.Name == "navcalc.exec_ms" || s.Name == "core.unattributed_ms" ||
					s.Name == "algebra.invocations" || (w.Cold && s.Name == "web.cache_hit_ratio")
				if !zeroOK && v <= 0 {
					t.Errorf("%s: %s = %v, want > 0 on a workload it applies to", w.Name, s.Name, v)
				}
				if !applies(w, s.Name) && v != 0 {
					t.Errorf("%s: %s = %v, want 0 on a workload it does not apply to", w.Name, s.Name, v)
				}
			}
			if rep.MinSelfMS < 0 {
				t.Errorf("%s: a span's self time went negative (%v ms)", w.Name, rep.MinSelfMS)
			}
			raw, err := os.ReadFile(rep.SpanFile)
			if err != nil {
				t.Fatalf("%s: span file: %v", w.Name, err)
			}
			var doc struct{ Spans []spanRecord }
			if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Spans) == 0 {
				t.Fatalf("%s: span file has %d spans, err %v", w.Name, len(doc.Spans), err)
			}
			for _, s := range doc.Spans {
				if s.Query == "" || s.Name == "" || s.EndNS < s.StartNS {
					t.Fatalf("%s: malformed span %+v", w.Name, s)
				}
			}
			if w.Sever {
				if got := rep.Metrics["client.resumes"]; got != 1 {
					t.Errorf("client.resumes = %v, want exactly 1 per query", got)
				}
				if got := rep.Metrics["server.resume_skipped_events"]; got != 2 {
					t.Errorf("server.resume_skipped_events = %v, want 2 (meta and seq=1)", got)
				}
			}
		})
	}
}

// Two back-to-back runs of one workload do the same work: the counts that
// carry a 2% bound must repeat far inside it.
func TestCountsRepeat(t *testing.T) {
	a, b := tiny(t, "nav_warm", false), tiny(t, "nav_warm", false)
	for _, name := range []string{"fetches_per_query", "allocs_per_query"} {
		x, y := a.Metrics[name], b.Metrics[name]
		if math.Abs(x-y)/x > 0.02 {
			t.Errorf("%s: %v then %v, more than 2%% apart", name, x, y)
		}
	}
	if a.Metrics["fetches_per_query"] != b.Metrics["fetches_per_query"] {
		t.Errorf("fetches_per_query is a count and must repeat exactly: %v then %v",
			a.Metrics["fetches_per_query"], b.Metrics["fetches_per_query"])
	}
}

// A severed-and-resumed stream hands the caller exactly what an unsevered
// one does, with exactly one resume.
func TestResumedStreamsMatchUnsevered(t *testing.T) {
	render := func(name string) (map[string]string, map[string]int) {
		spec, _ := findWorkload(name)
		e, err := newEnv(spec, 3, false, 6)
		if err != nil {
			t.Fatal(err)
		}
		defer e.close()
		streams, attempts := map[string]string{}, map[string]int{}
		for _, text := range e.deck {
			st, err := e.client.Query(context.Background(), text)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for st.Next() {
				d := st.Delivery()
				fmt.Fprintf(&b, "seq=%d index=%d object=%v skipped=%q failed=%v\n", d.Seq, d.Index, d.Object, d.Skipped, d.Failure != nil)
				for _, tup := range d.Tuples {
					fmt.Fprintf(&b, "  %s\n", tup.Key())
				}
			}
			if st.Err() != nil {
				t.Fatalf("%s: %q: %v", name, text, st.Err())
			}
			fmt.Fprintf(&b, "trailer tuples=%d objects=%d\n", st.Trailer().Tuples, st.Trailer().Objects)
			streams[text], attempts[text] = b.String(), st.Attempts()
			st.Close()
		}
		return streams, attempts
	}
	whole, wholeAttempts := render("serve_stream")
	resumed, resumedAttempts := render("serve_resume")
	if len(whole) != 6 || len(resumed) != 6 {
		t.Fatalf("rendered %d and %d streams, want 6 each", len(whole), len(resumed))
	}
	for text, want := range whole {
		if resumed[text] != want {
			t.Errorf("%q: resumed stream differs from the unsevered one:\n%s\nvs\n%s", text, resumed[text], want)
		}
		if wholeAttempts[text] != 1 || resumedAttempts[text] != 2 {
			t.Errorf("%q: attempts %d unsevered, %d severed; want 1 and 2", text, wholeAttempts[text], resumedAttempts[text])
		}
	}
}

// A wrong answer must count as a failed operation, not pass silently.
func TestGoldenMismatchFails(t *testing.T) {
	spec, _ := findWorkload("nav_warm")
	e, err := newEnv(spec, 3, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	g := e.golden[e.deck[0]]
	g.sum++
	e.golden[e.deck[0]] = g
	p := e.runPhase(context.Background(), 1, 1, 1)
	if p.Failed != 1 || p.Queries != 2 {
		t.Errorf("failed %d of %d, want 1 of 2", p.Failed, p.Queries)
	}
}

func TestDeckIsTheSamePopulationUnderEverySeed(t *testing.T) {
	for _, w := range workloads {
		a, b := buildDeck(w, 1), buildDeck(w, 2)
		want := 24
		if w.Joins {
			want = 32
		}
		if len(a) != want || reflect.DeepEqual(a, b) {
			t.Errorf("%s: deck of %d (want %d); seeds 1 and 2 equal: %v", w.Name, len(a), want, reflect.DeepEqual(a, b))
		}
		set := map[string]bool{}
		for _, q := range a {
			set[q] = true
		}
		for _, q := range b {
			if !set[q] {
				t.Errorf("%s: seed 2 has a query seed 1 lacks: %s", w.Name, q)
			}
		}
		if !reflect.DeepEqual(a, buildDeck(w, 1)) {
			t.Errorf("%s: the same seed gave two decks", w.Name)
		}
	}
}

func TestFlags(t *testing.T) {
	o, err := parseFlags(strings.Fields("--workload join_warm --seed 9 --seconds 7 --trace 1"))
	if err != nil || o.workload != "join_warm" || o.seed != 9 || o.seconds != 7 || !o.trace {
		t.Errorf("driver form: %+v, %v", o, err)
	}
	if o, err = parseFlags(strings.Fields("--trace 0 --seed 2")); err != nil || o.trace || o.seed != 2 {
		t.Errorf("--trace 0: %+v, %v", o, err)
	}
	if o, err = parseFlags([]string{"-trace"}); err != nil || !o.trace {
		t.Errorf("-trace as a switch: %+v, %v", o, err)
	}
	if _, err = parseFlags([]string{"-workload", "nope"}); err == nil {
		t.Error("an unknown workload was accepted")
	}
	w, _ := findWorkload("nav_warm")
	if got := w.passesPerRound(refSeconds, false); got != w.RefPasses {
		t.Errorf("passes at the reference size: %d, want %d", got, w.RefPasses)
	}
	if got := w.passesPerRound(1, true); got != 1 {
		t.Errorf("passes never drop below one: %d", got)
	}
}

func TestSelfTimeAndQuartiles(t *testing.T) {
	if got := iqr([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5) > 1e-9 {
		t.Errorf("iqr of 1..10 = %v, want 5.5 as statistics.quantiles gives", got)
	}
	if got := percentile([]float64{1, 2, 3, 4}, 0.5); got != 2.5 {
		t.Errorf("interpolated median = %v", got)
	}
}

// BENCHMARK.json mirrors the tables in spec.go; the driver reads the one,
// the program prints from the other.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != refSeconds || !reflect.DeepEqual(doc.Paths, []string{"bench"}) ||
		!reflect.DeepEqual(doc.Command, []string{"go", "run", "./bench"}) {
		t.Errorf("command %v, paths %v, run_seconds %d", doc.Command, doc.Paths, doc.RunSeconds)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from spec.go:\n%v\n%v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from spec.go:\n%v\n%v", doc.PerLayer, perLayer)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q / %q (why of %d characters)", i, doc.Workloads[i].Name, w.Name, len(w.Why))
		}
	}
}
