package ur

import (
	"fmt"
	"strings"
	"sync"

	"webbase/internal/relation"
	"webbase/internal/web"
)

// This file is where a query's answer is assembled (DESIGN.md §10) and
// the per-object delivery surface behind streaming answers. The UR answer
// is the union of independent maximal objects, so partial answers are
// already well-defined: as soon as an object's evaluation finishes, its
// contribution to the answer is final and can be shipped to the caller
// while the remaining objects are still navigating their sites.
//
// Determinism is preserved by a plan-order gate: workers complete
// objects in arbitrary order, but an object is classified and merged into
// the answer only once every object before it in the plan has been, and
// what a delivery carries is exactly what that merge added — the tuples no
// earlier object had. The concatenation of all delivered tuples therefore
// is Result.Relation's tuple sequence, whatever the worker count.

// ObjectDelivery is one maximal object's finished contribution to a
// streaming answer.
type ObjectDelivery struct {
	// Index is the object's plan-order position, or -1 for the single
	// buffered terminal delivery of an ORDER BY / LIMIT query.
	Index int
	// Seq is the delivery's 1-based position in the delivery sequence.
	// Deliveries are released in plan order, so Seq is deterministic for a
	// given query and web state whatever the worker count — it is the
	// resumable-stream offset: a consumer that has processed deliveries
	// through Seq k can re-run the query and skip everything with Seq <= k,
	// and the stitched sequence is identical to an uninterrupted run.
	Seq int
	// Object is the minimal-cover relation set that was evaluated (empty
	// for the buffered terminal delivery).
	Object []string
	// Tuples are the new unique tuples this object contributed — tuples
	// an earlier plan-order object already delivered are omitted, so the
	// concatenation across deliveries is duplicate-free. The slice is a
	// stretch of Result.Relation's own tuples: read it, or append to it
	// (which copies), but do not write its elements.
	Tuples []relation.Tuple
	// Failure is non-nil when the object degraded out of the answer
	// (site outage or drift).
	Failure *SiteFailure
	// Skipped is non-empty when the object was skipped on binding
	// grounds; it carries the same rendering as Result.Skipped.
	Skipped string
	// Buffered marks the single terminal delivery of a query whose
	// ORDER BY / LIMIT forbids incremental streaming: all tuples arrive
	// at once, post-sort and post-truncation.
	Buffered bool
}

// ObjectSink receives deliveries in plan order. Calls are serialized by
// the gate; the sink must not re-enter evaluation. The gate's
// serialization covers only its own calls: a sink that is also written
// by out-of-band goroutines — the server's keepalive ticker emits
// liveness events between deliveries — must carry its own lock, because
// the gate neither knows about nor orders those writers.
type ObjectSink func(ObjectDelivery)

// streamGate is the one place a finished maximal object is classified and
// merged into the answer. It buffers out-of-order completions and takes
// them strictly in plan order: a binding skip goes to Result.Skipped, a
// degradable outage or drift to Result.Degradation, an answer into the
// union (first occurrence wins), anything else is fatal and ends the
// merge. Each step is mirrored to the sink when there is one.
type streamGate struct {
	sink  ObjectSink // nil: merge only
	limit int        // LIMIT of the armed cardinality early-exit, else 0

	mu          sync.Mutex
	next        int          // next plan index to merge
	ready       []*gateEntry // completed objects, by plan index
	res         *Result      // Plan set; the rest filled in as objects merge
	union       relation.Merge
	firstOutage error // first degraded object's error
	fatal       error // set once: the merge has stopped and the query fails
}

type gateEntry struct {
	rel *relation.Relation
	err error
}

func newStreamGate(sink ObjectSink, plan *Plan, limit int) *streamGate {
	return &streamGate{
		sink:  sink,
		limit: limit,
		ready: make([]*gateEntry, len(plan.Objects)),
		res:   &Result{Plan: plan},
	}
}

// complete records object i's outcome and merges the contiguous
// plan-order prefix of completed objects. Only an object's first
// completion counts. Safe for concurrent use by the worker pool; sink
// calls happen under the gate lock, so they are serialized and ordered.
func (g *streamGate) complete(i int, rel *relation.Relation, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ready[i] != nil {
		return
	}
	g.ready[i] = &gateEntry{rel: rel, err: err}
	for g.fatal == nil && g.next < len(g.ready) && g.ready[g.next] != nil {
		g.merge(g.next, g.ready[g.next])
		g.next++
	}
}

// limitSatisfied reports whether the merged plan-order prefix already
// holds LIMIT distinct tuples, so that no object not yet started can
// change the answer. Only the merged prefix is sound to count: the answer
// is the plan-order union truncated to LIMIT, and tuples of an object
// that finished ahead of an earlier one may yet be displaced by it.
func (g *streamGate) limitSatisfied() bool {
	if g.limit <= 0 {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.union.Len() >= g.limit
}

// merge classifies one completed object and emits the matching delivery.
// Exactly one delivery is emitted per plan-order object, so the sequence
// number is simply i+1 — the plan-order index shifted to leave 0 for a
// stream's preamble. A fatal error (neither a binding failure nor a
// degradable outage/drift) stops the merge: the query is going to return
// it and no further objects are observable parts of the answer.
func (g *streamGate) merge(i int, e *gateEntry) {
	obj := g.res.Plan.Objects[i]
	d := ObjectDelivery{Index: i, Seq: i + 1, Object: obj.Relations}
	switch {
	case e.err == nil:
		if d.Tuples, g.fatal = g.union.Add(e.rel); g.fatal != nil {
			return
		}
	case isBindingFailure(e.err):
		d.Skipped = fmt.Sprintf("{%s}: %v", strings.Join(obj.Relations, ", "), e.err)
		g.res.Skipped = append(g.res.Skipped, d.Skipped)
	case web.IsOutage(e.err) || web.IsDrift(e.err):
		// Graceful degradation: a terminally-failed site (outage class) or
		// a drifted site (answering, but no longer matching its navigation
		// map) abandons only the maximal objects that depend on it; the
		// survivors still answer. Cancellation is neither: it is fatal, as
		// an unclassified context error.
		kind := FailureOutage
		if web.IsDrift(e.err) {
			kind = FailureDrift
		}
		d.Failure = &SiteFailure{
			Object: obj.Relations,
			Host:   web.FailingHost(e.err),
			Kind:   kind,
			Err:    e.err.Error(),
		}
		if g.res.Degradation == nil {
			g.res.Degradation = &Degradation{}
			g.firstOutage = e.err
		}
		g.res.Degradation.Unavailable = append(g.res.Degradation.Unavailable, *d.Failure)
	default:
		g.fatal = fmt.Errorf("ur: evaluating object {%s}: %w", strings.Join(obj.Relations, ", "), e.err)
		return
	}
	if g.sink != nil {
		g.sink(d)
	}
}

// finish returns the assembled answer once every object has completed:
// the first fatal error in plan order, or an error when no object
// answered, else the union with what was skipped and what degraded.
func (g *streamGate) finish() (*Result, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.fatal != nil {
		return nil, g.fatal
	}
	res := g.res
	if res.Relation = g.union.Relation(); res.Relation == nil {
		if res.Degradation.Degraded() {
			var gone []string
			for _, f := range res.Degradation.Unavailable {
				gone = append(gone, fmt.Sprintf("{%s}: %s", strings.Join(f.Object, ", "), f.Err))
			}
			return nil, fmt.Errorf("ur: every maximal object was unavailable or skipped: %s: %w",
				strings.Join(append(gone, res.Skipped...), "; "), g.firstOutage)
		}
		return nil, fmt.Errorf("ur: every maximal object was skipped: %s", strings.Join(res.Skipped, "; "))
	}
	return res, nil
}
