// Package trace is the webbase's execution-tracing subsystem: a
// concurrency-safe span tree mirroring the layered evaluation of one query
// (query → maximal object → algebra operator → handle invocation → page
// fetch), threaded through every layer via context.Context.
//
// Two properties make the layer testable and useful for optimization work
// (Benedikt & Gottlob: knowing which accesses actually mattered is the key
// lever for optimizing dynamic-web query plans):
//
//   - Determinism. Span IDs are assigned in plan order — every parallel
//     fan-out pre-creates its children in index order before dispatching
//     work — so the trace *structure* is byte-identical regardless of how
//     many workers evaluate the query. Schedule-dependent facts (which
//     fetch hit the cache, which was deduplicated onto an in-flight
//     twin) are recorded as labels, kept out of the structural rendering.
//   - Injectable time. Spans read a clock the Trace owns; tests inject a
//     fake clock and get byte-identical timings too.
//
// The package also hosts a dependency-free metrics registry (metrics.go)
// that aggregates counters, gauges and histograms across queries.
package trace

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"
)

// Kind classifies a span by the layer that produced it.
type Kind uint8

// Span kinds, one per layer of the paper's architecture plus the
// dependent-join invocation level in between.
const (
	KindQuery  Kind = iota // one UR query (the root)
	KindObject             // one maximal object of the plan
	KindOp                 // one algebra operator evaluation
	KindInvoke             // one dependent-join handle invocation (one binding combination)
	KindHandle             // one VPS handle execution
	KindFetch              // one page load attempted by navigation
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindQuery:
		return "query"
	case KindObject:
		return "object"
	case KindOp:
		return "op"
	case KindInvoke:
		return "invoke"
	case KindHandle:
		return "handle"
	case KindFetch:
		return "fetch"
	default:
		return fmt.Sprintf("kind(%d)", k)
	}
}

// Trace is one query's span tree. The zero value is not usable; call New.
type Trace struct {
	// Root is the query span every other span descends from.
	Root  *Span
	clock func() time.Time
}

// New starts a trace whose root span has the given name. clock supplies
// span timestamps; nil means time.Now. Injecting a fake clock makes span
// timings — and therefore full renderings — reproducible in tests.
func New(rootName string, clock func() time.Time) *Trace {
	if clock == nil {
		clock = time.Now
	}
	t := &Trace{clock: clock}
	t.Root = &Span{trace: t, kind: KindQuery, name: rootName, start: clock()}
	return t
}

// Span is one node of the trace tree. All methods are safe for concurrent
// use and safe on a nil receiver, so instrumentation sites need no
// "tracing enabled?" branches: without a span in the context every call is
// a no-op.
type Span struct {
	trace *Trace
	kind  Kind
	name  string

	mu sync.Mutex
	// The span's place in the tree: its parent (nil for the root) and its
	// position among the parent's children. The plan-order path ID
	// ("0", "0.1", "0.1.2", ...) is read off them, so a subtree Share
	// moves is numbered where it lands.
	parent   *Span
	index    int
	start    time.Time
	end      time.Time
	err      string
	counters map[string]int64  // deterministic facts: tuples, bytes, fetches, ...
	labels   map[string]string // schedule-dependent facts: outcome, attempts, ...
	children []*Span
}

// Start creates a child span. It is the one tree-growing operation;
// deterministic IDs follow from calling it either sequentially or — at
// parallel fan-outs — for all children in index order before dispatch.
// On a nil receiver it returns nil.
func (s *Span) Start(kind Kind, name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{trace: s.trace, kind: kind, name: name, parent: s, start: s.trace.clock()}
	s.mu.Lock()
	c.index = len(s.children)
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End stamps the span's end time.
func (s *Span) End() { s.EndErr(nil) }

// EndErr stamps the end time and records err (nil is a clean end).
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	now := s.trace.clock()
	s.mu.Lock()
	s.end = now
	if err != nil {
		s.err = err.Error()
	}
	s.mu.Unlock()
}

// Set records a deterministic counter value on the span. Counters appear
// in structural renderings, so only schedule-independent quantities
// (tuple counts, page loads, bytes) belong here; use Label for the rest.
func (s *Span) Set(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.counters == nil {
		s.counters = make(map[string]int64)
	}
	s.counters[key] = v
	s.mu.Unlock()
}

// Add increments a deterministic counter.
func (s *Span) Add(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.counters == nil {
		s.counters = make(map[string]int64)
	}
	s.counters[key] += v
	s.mu.Unlock()
}

// Label records a schedule-dependent annotation (e.g. whether a fetch was
// served by the cache, the network, or an in-flight twin). Labels are
// exported to JSON but excluded from structural renderings, which is what
// keeps those byte-identical across worker counts.
func (s *Span) Label(key, val string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.labels == nil {
		s.labels = make(map[string]string)
	}
	s.labels[key] = val
	s.mu.Unlock()
}

// Kind returns the span's kind.
func (s *Span) Kind() Kind {
	if s == nil {
		return KindQuery
	}
	return s.kind
}

// Name returns the span's name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// ID returns the span's plan-order path ID.
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	id := []byte{'0'}
	for _, i := range s.path() {
		id = strconv.AppendInt(append(id, '.'), int64(i), 10)
	}
	return string(id)
}

func (s *Span) place() (*Span, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.parent, s.index
}

// before reports whether s comes before o in plan order: depth first, the
// children of a span in creation order.
func (s *Span) before(o *Span) bool {
	a, b := s.path(), o.path()
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// path returns the child positions from the root down to s.
func (s *Span) path() []int {
	var p []int
	for parent, index := s.place(); parent != nil; parent, index = parent.place() {
		p = append(p, index)
	}
	for i, j := 0, len(p)-1; i < j; i, j = i+1, j-1 {
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Share records one evaluation that several spans read: it ran under
// evaluator, itself one of readers, and every reader got its result. The
// evaluation's spans move under the reader that comes first in plan order,
// and every other reader is marked shared=1. That is where a sequential
// run records them, whichever reader happened to run the evaluation, so
// the tree stays the same at any worker count. Call it once the evaluation
// and all its readers are done.
func Share(evaluator *Span, readers []*Span) {
	if evaluator == nil || len(readers) == 0 {
		return
	}
	first := readers[0]
	for _, r := range readers[1:] {
		if r.before(first) {
			first = r
		}
	}
	if first != evaluator {
		evaluator.mu.Lock()
		moved := evaluator.children
		evaluator.children = nil
		evaluator.mu.Unlock()
		first.mu.Lock()
		at := len(first.children)
		first.children = append(first.children, moved...)
		first.mu.Unlock()
		for i, c := range moved {
			c.mu.Lock()
			c.parent, c.index = first, at+i
			c.mu.Unlock()
		}
	}
	for _, r := range readers {
		if r != first {
			r.Set("shared", 1)
		}
	}
}

// Err returns the recorded error message ("" for a clean span).
func (s *Span) Err() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Counter returns a counter's value (0 when unset).
func (s *Span) Counter(key string) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters[key]
}

// LabelValue returns a label's value ("" when unset).
func (s *Span) LabelValue(key string) string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.labels[key]
}

// Duration returns end − start, or 0 for an unfinished span.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() || s.end.Before(s.start) {
		return 0
	}
	return s.end.Sub(s.start)
}

// Children returns a snapshot of the child spans in creation (= plan)
// order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Walk visits the span and every descendant in depth-first plan order.
func (s *Span) Walk(fn func(*Span)) {
	if s == nil {
		return
	}
	fn(s)
	for _, c := range s.Children() {
		c.Walk(fn)
	}
}

// Spans returns every span of the given kinds in depth-first plan order
// (all spans when no kind is given).
func (t *Trace) Spans(kinds ...Kind) []*Span {
	var out []*Span
	t.Root.Walk(func(s *Span) {
		if len(kinds) == 0 {
			out = append(out, s)
			return
		}
		for _, k := range kinds {
			if s.kind == k {
				out = append(out, s)
				return
			}
		}
	})
	return out
}

type ctxKey struct{}

// ContextWith returns a context carrying the span; downstream layers pick
// it up with FromContext/Start. A nil span leaves ctx unchanged, so
// untraced evaluation pays no context allocation.
func ContextWith(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span the context carries, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// Start creates a child of the context's span, or returns nil (a no-op
// span) when the context carries none. This is the instrumentation
// entry point every layer uses.
func Start(ctx context.Context, kind Kind, name string) *Span {
	return FromContext(ctx).Start(kind, name)
}
