package trace

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metrics are declared, not created. Each family — its name, type, help
// text and label, with the label's closed values or the histogram's
// bucket bounds — is declared once, as a package-level variable beside
// the code that records it. The declarations form one process-wide table,
// and NewRegistry sizes a fixed array of cells from it, so recording is
// an index into that array and every declared series exists, at 0, from
// the moment a registry does. The one exception is an open label (a
// tenant name): its series are added by Series, once per value, before
// the hot path records to them.
//
// A labelled family also keeps its unlabelled total: adding to a value's
// series adds to the total in the same call.

// family is one declared metric: everything the exposition format says
// about it, and where its cells sit in a Registry.
type family struct {
	name, help string
	typ        string    // "counter", "gauge" or "histogram"
	label      string    // "" for an unlabelled family
	values     []string  // the label's closed values; nil for an open label
	bounds     []float64 // histogram bucket upper bounds, ascending
	at         int       // the family's first cell in Registry.series or Registry.hists
}

// Name returns the family's metric name.
func (f *family) Name() string { return f.name }

// Help returns the family's help text.
func (f *family) Help() string { return f.help }

var (
	families []*family // every declared family, in declaration order
	nSeries  int       // counter and gauge cells a Registry holds
	nHists   int       // histogram cells a Registry holds
	sealed   atomic.Bool

	// byName is the table in name order, the order a page lists it in.
	byName = sync.OnceValue(func() []*family {
		s := slices.Clone(families)
		sort.Slice(s, func(i, j int) bool { return s[i].name < s[j].name })
		return s
	})
)

func declare(f *family) {
	switch {
	case sealed.Load():
		panic("trace: metric " + f.name + " declared after a Registry was made")
	case lookup(f.name) != nil:
		panic("trace: metric " + f.name + " declared twice")
	}
	if f.typ == "histogram" {
		f.at = nHists
		nHists++
	} else {
		f.at = nSeries
		nSeries += 1 + len(f.values)
	}
	families = append(families, f)
}

func lookup(name string) *family {
	for _, f := range families {
		if f.name == name {
			return f
		}
	}
	return nil
}

// Counter is a declared counter without a label.
type Counter struct{ family }

// NewCounter declares a counter.
func NewCounter(name, help string) *Counter {
	c := &Counter{family{name: name, help: help, typ: "counter"}}
	declare(&c.family)
	return c
}

// Add adds n to the counter in r. A nil registry records nothing.
func (c *Counter) Add(r *Registry, n int64) {
	if r != nil {
		r.series[c.at].v.Add(n)
	}
}

// CounterVec is a declared counter broken down by one label, plus its
// unlabelled total.
type CounterVec struct{ family }

// NewCounterVec declares a counter labelled by label. With values the
// label is closed: its series are those values, indexed in Add by
// position. Without, it is open, and a value gets its series from Series.
func NewCounterVec(name, help, label string, values ...string) *CounterVec {
	c := &CounterVec{family{name: name, help: help, typ: "counter", label: label, values: values}}
	declare(&c.family)
	return c
}

// Add adds n to the series of the label's i'th declared value, and to
// the total. A nil registry records nothing; an i out of range panics.
func (c *CounterVec) Add(r *Registry, i int, n int64) {
	if uint(i) >= uint(len(c.values)) {
		panic(fmt.Sprintf("trace: %s has no %s number %d", c.name, c.label, i))
	}
	if r != nil {
		r.series[c.at+1+i].Add(n)
	}
}

// Total returns the family's unlabelled series in r: adding to it adds to
// no label's series. nil for a nil registry.
func (c *CounterVec) Total(r *Registry) *Series {
	if r == nil {
		return nil
	}
	return &r.series[c.at]
}

// Series returns the series of value, a value of an open label, in r,
// adding it first if value is new; adding to it adds to the total too.
// Callers resolve a series once and keep it, so recording builds no
// names. nil for a nil registry; a closed label panics.
func (c *CounterVec) Series(r *Registry, value string) *Series {
	if c.values != nil {
		panic("trace: " + c.name + "'s " + c.label + " label is closed: Add by index")
	}
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, o := range r.open {
		if o.f == &c.family && o.value == value {
			return o.s
		}
	}
	s := &Series{total: &r.series[c.at]}
	r.open = append(r.open, openSeries{&c.family, value, s})
	return s
}

// Gauge is a declared gauge: a settable instantaneous value.
type Gauge struct{ family }

// NewGauge declares a gauge.
func NewGauge(name, help string) *Gauge {
	g := &Gauge{family{name: name, help: help, typ: "gauge"}}
	declare(&g.family)
	return g
}

// Set replaces the gauge's value in r. A nil registry records nothing.
func (g *Gauge) Set(r *Registry, n int64) {
	if r != nil {
		r.series[g.at].v.Store(n)
	}
}

// SetMax raises the gauge in r to n if n exceeds its value.
func (g *Gauge) SetMax(r *Registry, n int64) {
	if r == nil {
		return
	}
	v := &r.series[g.at].v
	for {
		cur := v.Load()
		if n <= cur || v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// SecondsBuckets are the bucket bounds of the latency histograms.
var SecondsBuckets = []float64{0.001, 0.01, 0.1, 1, 10}

// Histogram is a declared histogram: observations counted into fixed
// buckets, with their sum and count.
type Histogram struct{ family }

// NewHistogram declares a histogram with the given bucket upper bounds,
// beyond which one +Inf bucket counts the rest.
func NewHistogram(name, help string, bounds ...float64) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic("trace: histogram " + name + " bounds are not ascending")
	}
	h := &Histogram{family{name: name, help: help, typ: "histogram", bounds: bounds}}
	declare(&h.family)
	return h
}

// Observe records one value in r. A nil registry records nothing.
func (h *Histogram) Observe(r *Registry, v float64) {
	if r == nil {
		return
	}
	c := &r.hists[h.at]
	i := sort.SearchFloat64s(h.bounds, v)
	c.mu.Lock()
	c.counts[i]++
	c.sum += v
	c.n++
	c.mu.Unlock()
}

// Series is one counter or gauge series: a cell of a Registry.
type Series struct {
	v     atomic.Int64
	total *Series // a labelled series' family total, which every Add feeds too
}

// Add adds n to the series (and to its family total). A nil series
// records nothing.
func (s *Series) Add(n int64) {
	if s == nil {
		return
	}
	s.v.Add(n)
	if s.total != nil {
		s.total.v.Add(n)
	}
}

// Value returns the series' current value; 0 for a nil series.
func (s *Series) Value() int64 {
	if s == nil {
		return 0
	}
	return s.v.Load()
}

// histogram is one histogram's cells.
type histogram struct {
	mu     sync.Mutex
	counts []int64 // per bucket, the +Inf bucket last
	sum    float64
	n      int64
}

// openSeries is one value's series of an open-labelled family.
type openSeries struct {
	f     *family
	value string
	s     *Series
}

// Registry holds one cell per series of every declared family. One lives
// on each Webbase and aggregates across queries; the per-query trace tree
// answers "what did this query do", the registry answers "what has this
// webbase been doing".
type Registry struct {
	series []Series
	hists  []histogram

	mu   sync.Mutex   // guards open
	open []openSeries // open-label series, in the order Series added them
}

// NewRegistry returns a registry holding every declared series at 0.
// No family may be declared after the first registry is made.
func NewRegistry() *Registry {
	sealed.Store(true)
	r := &Registry{series: make([]Series, nSeries), hists: make([]histogram, nHists)}
	for _, f := range families {
		if f.typ == "histogram" {
			r.hists[f.at].counts = make([]int64, len(f.bounds)+1)
			continue
		}
		for i := range f.values {
			r.series[f.at+1+i].total = &r.series[f.at]
		}
	}
	return r
}

// eachSeries calls fn with the exposition name and cell of each of a
// counter or gauge family's series: the total, then the closed values in
// declared order or the open ones in name order.
func (r *Registry) eachSeries(f *family, fn func(name string, s *Series)) {
	fn(f.name, &r.series[f.at])
	for i, v := range f.values {
		fn(seriesName(f, v), &r.series[f.at+1+i])
	}
	if f.label == "" || f.values != nil {
		return
	}
	r.mu.Lock()
	var open []openSeries
	for _, o := range r.open {
		if o.f == f {
			open = append(open, o)
		}
	}
	r.mu.Unlock()
	sort.Slice(open, func(i, j int) bool { return open[i].value < open[j].value })
	for _, o := range open {
		fn(seriesName(f, o.value), o.s)
	}
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func seriesName(f *family, value string) string {
	return f.name + "{" + f.label + `="` + labelEscaper.Replace(value) + `"}`
}

// Counter returns the counter series with the given exposition name —
// "queries_total" or `store_corrupt_total{tier="open"}` — for reading. It
// never creates one: a name no declared series has panics.
func (r *Registry) Counter(name string) *Series {
	var found *Series
	for _, f := range families {
		if f.typ == "counter" && strings.HasPrefix(name, f.name) {
			r.eachSeries(f, func(n string, s *Series) {
				if n == name {
					found = s
				}
			})
		}
	}
	if found == nil {
		panic("trace: no counter series " + name)
	}
	return found
}
