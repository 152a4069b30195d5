// Package once runs a computation once per key among the callers that ask
// for it at the same time, and keeps its result when told to. It is the one
// table behind the fetch stack's singleflight and everything a query
// remembers (DESIGN.md §16).
package once

import (
	"context"
	"sync"
)

// Table runs fn once per key among concurrent callers of Do. The zero value
// is ready.
type Table[V any] struct {
	mu   sync.Mutex
	runs map[string]*run[V] // runs in flight, and the ended runs kept
}

// run is one call of fn. Its result is written before done closes.
type run[V any] struct {
	done         chan struct{} // made when the first waiter arrives
	ended, share bool          // ended: the run has ended and was kept
	v            V
	err          error
}

// Successes is the rule that shares and keeps a success and no failure.
func Successes[V any](_ V, err error) (share, keep bool) { return err == nil, err == nil }

// Do returns key's kept result if there is one; otherwise it waits for
// key's run in flight, or runs fn if there is none. joined reports that the
// result came from another caller's run. rule judges each run's result:
// share says whether the callers waiting on the run take it (if not, one of
// them runs in its place), keep whether every later caller takes it too.
//
// Two rules hold whatever rule says. A wait honours ctx: a waiter whose
// context is done returns its error at once, and the run goes on for the
// others. A run that fails while its caller's ctx is done is neither shared
// nor kept, since the failure may be that caller's alone.
func (t *Table[V]) Do(ctx context.Context, key string, fn func() (V, error), rule func(V, error) (share, keep bool)) (v V, joined bool, err error) {
	t.mu.Lock()
	for r := t.runs[key]; r != nil; r = t.runs[key] {
		if r.ended {
			t.mu.Unlock()
			return r.v, true, r.err
		}
		if r.done == nil {
			r.done = make(chan struct{})
		}
		t.mu.Unlock()
		select {
		case <-r.done:
		case <-ctx.Done():
			return v, false, ctx.Err()
		}
		if r.share {
			return r.v, true, r.err
		}
		t.mu.Lock()
	}
	r := &run[V]{}
	if t.runs == nil {
		t.runs = make(map[string]*run[V])
	}
	t.runs[key] = r
	t.mu.Unlock()

	v, err = fn()
	var share, keep bool
	if err == nil || ctx.Err() == nil {
		share, keep = rule(v, err)
	}
	t.mu.Lock()
	r.v, r.err, r.share, r.ended = v, err, share, keep
	if !keep {
		delete(t.runs, key)
	}
	done := r.done
	t.mu.Unlock()
	if done != nil {
		close(done)
	}
	return v, false, err
}
