package algebra

import (
	"context"
	"sync"
)

// Pool bounds the number of extra goroutines one query evaluation may
// spawn. The evaluator parallelizes union branches and dependent-join
// handle invocations; every parallel site carries the pool in its context
// (WithPool) and asks for a token per branch it wants to run concurrently.
// A branch that gets no token runs inline in the calling goroutine, so a
// pool of w tokens never exceeds w+1 concurrently evaluating goroutines
// and — because holders never block on token acquisition — can never
// deadlock, no matter how deeply parallel sites nest.
type Pool struct {
	sem chan struct{}
}

// NewPool returns a pool allowing up to workers concurrent evaluation
// goroutines in total (the caller counts as one). workers <= 1 returns
// nil: the nil pool means strictly sequential evaluation, every task run
// in index order on the calling goroutine.
func NewPool(workers int) *Pool {
	if workers <= 1 {
		return nil
	}
	return &Pool{sem: make(chan struct{}, workers-1)}
}

// tryAcquire takes a token without blocking.
func (p *Pool) tryAcquire() bool {
	select {
	case p.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

func (p *Pool) release() { <-p.sem }

type poolKey struct{}

// WithPool attaches the pool to the context; the evaluator and the UR
// layer pick it up from there. A nil pool is a no-op (sequential).
func WithPool(ctx context.Context, p *Pool) context.Context {
	if p == nil {
		return ctx
	}
	return context.WithValue(ctx, poolKey{}, p)
}

// PoolFrom returns the pool attached to the context, or nil.
func PoolFrom(ctx context.Context) *Pool {
	p, _ := ctx.Value(poolKey{}).(*Pool)
	return p
}

// ForEach runs fn(0..n-1), parallelizing with whatever pool the context
// carries, and returns the per-index errors. Results must be written by fn
// into caller-owned indexed slots, which keeps output ordering
// deterministic regardless of scheduling.
//
// Without a pool the tasks run in index order in the calling goroutine;
// stopEarly then reproduces the sequential evaluator's short-circuit (no
// task after the first failing one runs, their error slots stay nil). With
// a pool every task runs (siblings of a failing branch are not aborted)
// and the caller sees all errors — callers that need the sequential error
// surface take the lowest-index one.
//
// A context cancelled before a task starts records ctx.Err() in that
// task's slot instead of running it, which is what stops a cancelled
// query from issuing further fetches.
func ForEach(ctx context.Context, n int, stopEarly bool, fn func(i int) error) []error {
	errs := make([]error, n)
	pool := PoolFrom(ctx)
	if pool == nil {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				if stopEarly {
					return errs
				}
				continue
			}
			errs[i] = fn(i)
			if errs[i] != nil && stopEarly {
				return errs
			}
		}
		return errs
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			continue
		}
		// The last task always runs inline: the calling goroutine is
		// itself a worker, so burning a token on it would waste a slot.
		if i == n-1 || !pool.tryAcquire() {
			errs[i] = fn(i)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer pool.release()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errs
}

// firstError returns the lowest-index non-nil error — the error the
// sequential evaluator would have surfaced.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
