package trace

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// RenderOptions controls Render.
type RenderOptions struct {
	// Timings includes per-line wall time (time=…). Wall time is
	// schedule-dependent; StripTimings removes exactly these fields, which
	// is how the determinism tests compare renderings "minus timings".
	Timings bool
}

// Render prints the trace as an aggregated plan tree, Postgres
// EXPLAIN ANALYZE-style: sibling spans with the same kind and name — the
// per-combination invocations of a dependent join, the repeated scans they
// contain, the page loads of a pagination loop — merge into one line with
// invocations=N and summed counters. Aggregation is a pure function of the
// tree, and the tree is built in plan order, so the rendering (minus
// timings) is byte-identical no matter how many workers evaluated the
// query.
func (t *Trace) Render(opts RenderOptions) string {
	var sb strings.Builder
	renderAgg(&sb, aggregate([]*Span{t.Root}), 0, opts)
	return sb.String()
}

// Structure prints the raw (non-aggregated) span tree — one line per span
// with its plan-order ID, kind, name, error and deterministic counters,
// and nothing schedule-dependent. Two traces of the same query have equal
// Structure regardless of Config.Workers; the determinism suite asserts
// exactly that.
func (t *Trace) Structure() string {
	var sb strings.Builder
	var walk func(s *Span, id string, depth int)
	walk = func(s *Span, id string, depth int) {
		fmt.Fprintf(&sb, "%s%s %s %s", strings.Repeat("  ", depth), id, s.Kind(), s.Name())
		writeCounters(&sb, s.countersSnapshot())
		if e := s.Err(); e != "" {
			fmt.Fprintf(&sb, " error=%q", e)
		}
		sb.WriteByte('\n')
		for i, c := range s.Children() {
			walk(c, id+"."+strconv.Itoa(i), depth+1)
		}
	}
	walk(t.Root, t.Root.ID(), 0)
	return sb.String()
}

var timingRE = regexp.MustCompile(` time=[^ \n]+`)

// StripTimings removes the time=… fields Render(Timings: true) adds,
// leaving only the schedule-independent text.
func StripTimings(s string) string { return timingRE.ReplaceAllString(s, "") }

// agg is one line of the aggregated rendering: a group of sibling spans
// sharing kind and name, with counters summed and children merged
// recursively.
type agg struct {
	kind     Kind
	name     string
	count    int
	errs     int
	dur      int64 // summed durations, ns
	counters map[string]int64
	children []*agg
}

// aggregate groups the given sibling spans' children by (kind, name) in
// first-occurrence order — which is plan order, because spans are created
// in plan order.
func aggregate(group []*Span) *agg {
	a := &agg{kind: group[0].Kind(), name: group[0].Name(), count: len(group), counters: make(map[string]int64)}
	var childGroups [][]*Span
	index := make(map[string]int)
	for _, s := range group {
		if s.Err() != "" {
			a.errs++
		}
		a.dur += int64(s.Duration())
		for k, v := range s.countersSnapshot() {
			a.counters[k] += v
		}
		for _, c := range s.Children() {
			key := c.Kind().String() + "\x00" + c.Name()
			i, ok := index[key]
			if !ok {
				i = len(childGroups)
				index[key] = i
				childGroups = append(childGroups, nil)
			}
			childGroups[i] = append(childGroups[i], c)
		}
	}
	for _, cg := range childGroups {
		a.children = append(a.children, aggregate(cg))
	}
	return a
}

func renderAgg(sb *strings.Builder, a *agg, depth int, opts RenderOptions) {
	fmt.Fprintf(sb, "%s%s invocations=%d", strings.Repeat("  ", depth), a.name, a.count)
	writeCounters(sb, a.counters)
	if a.errs > 0 {
		fmt.Fprintf(sb, " errors=%d", a.errs)
	}
	if opts.Timings {
		fmt.Fprintf(sb, " time=%v", durRound(a.dur))
	}
	sb.WriteByte('\n')
	for _, c := range a.children {
		renderAgg(sb, c, depth+1, opts)
	}
}

// durRound trims summed durations to microseconds: enough resolution for a
// human, short enough to keep lines readable.
func durRound(ns int64) time.Duration { return time.Duration(ns).Round(time.Microsecond) }

func writeCounters(sb *strings.Builder, counters map[string]int64) {
	keys := make([]string, 0, len(counters))
	for k := range counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(sb, " %s=%d", k, counters[k])
	}
}

func (s *Span) countersSnapshot() map[string]int64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.counters))
	for k, v := range s.counters {
		out[k] = v
	}
	return out
}
