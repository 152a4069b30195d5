package ur

import (
	"context"
	"slices"
	"strconv"
	"sync"

	"webbase/internal/algebra"
	"webbase/internal/once"
	"webbase/internal/relation"
	"webbase/internal/trace"
)

// sharedCatalog is the catalog a query's maximal objects read through when
// its plan has relations that several of them read (Plan.Shared). Each
// distinct (relation, inputs) of a shared relation is populated once for
// the whole query; every other reader waits for that run and gets the same
// relation, which nothing mutates. Relations are immutable, and a shared
// relation's result depends on nothing but its inputs and the query: the
// objects differ only in their trace spans and deadline budgets. Every
// other relation goes straight through.
//
// Only successes are kept (once.Successes). A failed run (outage, drift,
// spent budget, cancellation) is forgotten, its own reader gets the error,
// and the next reader populates in its place, so each object degrades
// exactly as it would have alone. A wait cannot close a cycle: shared
// relations are views over the catalog below, which does not share, and
// the worker pool runs a task inline when it has no token to spare.
//
// A sharedCatalog lives in one Eval frame and goes with it.
type sharedCatalog struct {
	algebra.Catalog
	shared []string
	runs   once.Table[*sharedRun] // by appendSharedKey

	mu   sync.Mutex   // guards kept and each kept run's readers
	kept []*sharedRun // the traced runs that succeeded
}

// sharedRun is one successful population of a shared relation.
type sharedRun struct {
	rel *relation.Relation
	// The span the run recorded its work under, and the spans of every
	// reader it served (the evaluator's among them). Tracing only.
	evaluator *trace.Span
	readers   []*trace.Span
}

// Populate implements algebra.Catalog.
func (c *sharedCatalog) Populate(ctx context.Context, name string, inputs map[string]relation.Value) (*relation.Relation, error) {
	if !slices.Contains(c.shared, name) {
		return c.Catalog.Populate(ctx, name, inputs)
	}
	sp := trace.FromContext(ctx)
	// The key is encoded on the stack: a reader that joins a run, or takes
	// its kept result, allocates no key (once.Table.DoBytes).
	var at [128]byte
	key := appendSharedKey(at[:0], name, inputs)
	run, joined, err := c.runs.DoBytes(ctx, key, func() (*sharedRun, error) {
		rel, err := c.Catalog.Populate(ctx, name, inputs)
		if err != nil {
			return nil, err
		}
		return &sharedRun{rel: rel, evaluator: sp}, nil
	}, once.Successes[*sharedRun])
	if err != nil {
		return nil, err
	}
	if sp != nil {
		c.mu.Lock()
		if !joined {
			c.kept = append(c.kept, run)
		}
		run.readers = append(run.readers, sp)
		c.mu.Unlock()
	}
	return run.rel, nil
}

// placeSpans gives every kept run's spans to its first reader in plan
// order (trace.Share). Call it once every reader is done.
func (c *sharedCatalog) placeSpans() {
	for _, run := range c.kept {
		trace.Share(run.evaluator, run.readers)
	}
}

// appendSharedKey appends the key that identifies a population to buf: the
// relation and its inputs, each value by kind and exact text. Values Equal
// compares alike (a different case, an int and a float) are different
// inputs here, since a site may answer them differently.
func appendSharedKey(buf []byte, name string, inputs map[string]relation.Value) []byte {
	// The names are sorted in place on the stack; a population with more
	// inputs than the array holds grows a slice of its own.
	var room [16]string
	attrs := room[:0]
	for a := range inputs {
		attrs = append(attrs, a)
	}
	slices.Sort(attrs)
	buf = strconv.AppendQuote(buf, name)
	for _, a := range attrs {
		v := inputs[a]
		buf = append(strconv.AppendQuote(buf, a), byte('0'+v.Kind()))
		buf = strconv.AppendQuote(buf, v.String())
	}
	return buf
}
