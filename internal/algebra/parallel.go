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
// nil: the nil pool has no tokens, so every task runs inline, in index
// order, on the calling goroutine. It runs the same tasks as any other
// pool; only the number of goroutines differs.
func NewPool(workers int) *Pool {
	if workers <= 1 {
		return nil
	}
	return &Pool{sem: make(chan struct{}, workers-1)}
}

// tryAcquire takes a token without blocking. The nil pool has none.
func (p *Pool) tryAcquire() bool {
	if p == nil {
		return false
	}
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
// layer pick it up from there. A nil pool leaves the context as it is.
func WithPool(ctx context.Context, p *Pool) context.Context {
	if p == nil {
		return ctx
	}
	return context.WithValue(ctx, poolKey{}, p)
}

// poolFrom returns the pool attached to the context, or nil.
func poolFrom(ctx context.Context) *Pool {
	p, _ := ctx.Value(poolKey{}).(*Pool)
	return p
}

// ForEach runs fn(i) for each slot i of errs, parallelizing with whatever
// pool the context carries, and records each task's error in its slot. The
// slots are the caller's, zero when handed in, so a caller with few tasks
// can hand in part of an array on its stack (errorSlots). Results must be
// written by fn into caller-owned indexed slots, which keeps output
// ordering deterministic regardless of scheduling.
//
// Every task runs, whatever the pool: a failing task does not stop its
// siblings, and the caller sees all errors — callers that need one error
// take the lowest-index one (firstError). The pool decides only how many
// goroutines run the tasks; with no pool they all run in index order on
// the calling goroutine. So the work a query does, and what it is billed,
// is the same at every worker count.
//
// A context cancelled before a task starts records ctx.Err() in that
// task's slot instead of running it, which is what stops a cancelled
// query from issuing further fetches.
//
// fn may be handed to a goroutine, so a closure passed here is made on the
// heap at every call; a caller on a hot path uses ForEachOf.
func ForEach(ctx context.Context, errs []error, fn func(i int) error) []error {
	return ForEachOf(ctx, errs, fn, call)
}

// call is ForEach's task: fn(i).
func call(fn func(int) error, i int) error { return fn(i) }

// ForEachOf is ForEach with each task run as fn(frame, i): fn a function
// that captures nothing, and frame the values its tasks read. A task run
// inline writes its slot itself; only once a task takes a pool token does
// ForEachOf make the group its goroutines share — the wait group, the
// cells they write and a copy of the frame — and it copies those cells
// into the slots when they are done. So a call whose every task runs
// inline allocates nothing.
func ForEachOf[F any](ctx context.Context, errs []error, frame F, fn func(F, int) error) []error {
	pool := poolFrom(ctx)
	var group *taskGroup[F] // made when the first task takes a token
	for i := range errs {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			continue
		}
		// The last task always runs inline: the calling goroutine is
		// itself a worker, so burning a token on it would waste a slot.
		if i == len(errs)-1 || !pool.tryAcquire() {
			errs[i] = fn(frame, i)
			continue
		}
		if group == nil {
			group = &taskGroup[F]{errs: make([]error, len(errs)), pool: pool, frame: frame, fn: fn}
		}
		group.wg.Add(1)
		go group.run(i)
	}
	if group != nil {
		group.wg.Wait()
		for i, err := range group.errs {
			if err != nil {
				errs[i] = err
			}
		}
	}
	return errs
}

// taskGroup is what the goroutines of one ForEachOf call share: the group
// it waits on, the error cell of each task, written by the goroutine that
// ran it, and the tasks.
type taskGroup[F any] struct {
	wg    sync.WaitGroup
	errs  []error
	pool  *Pool
	frame F
	fn    func(F, int) error
}

// run runs task i on a token of the pool, and gives the token back.
func (g *taskGroup[F]) run(i int) {
	defer g.wg.Done()
	defer g.pool.release()
	g.errs[i] = g.fn(g.frame, i)
}

// errorSlots returns n zero error slots: the first n of at when it holds
// them, else slots of their own.
func errorSlots(at []error, n int) []error {
	if n <= len(at) {
		return at[:n]
	}
	return make([]error, n)
}

// firstError returns the lowest-index non-nil error — the error a caller
// surfaces whatever the worker count.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
