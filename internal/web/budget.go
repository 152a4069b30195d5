package web

import (
	"context"
	"errors"
	"time"

	"webbase/internal/trace"
)

// This file implements deadline budgets: per-evaluation-unit time bounds
// that let an overloaded query degrade instead of running forever. A
// Budget is minted per maximal object (the UR layer owns that boundary)
// and checked — never awaited — at the points where new work would
// start: before a fetch and before a dependent-join invocation. Work
// already in flight is allowed to finish; the budget only refuses to
// begin more.
//
// Budgets deliberately do not ride context.WithDeadline. A context
// deadline aborts in-flight work with an unclassified DeadlineExceeded
// that the taxonomy must not touch (cancellation is the caller's
// choice), and it would also leak one object's deadline to singleflight
// followers evaluating a different object. A check-only budget instead
// produces an ordinary outage-classified error at a deterministic
// boundary, so exhaustion flows through the exact degradation path PR 3
// built for dead sites.

// ErrBudgetExhausted is the cause recorded when a deadline budget
// refuses to start more work. Match with errors.Is (or
// IsBudgetExhausted); the surrounding error is outage-classified so the
// UR layer degrades the owning object.
var ErrBudgetExhausted = errors.New("web: deadline budget exhausted")

// IsBudgetExhausted reports whether err is a budget-exhaustion shed.
func IsBudgetExhausted(err error) bool { return errors.Is(err, ErrBudgetExhausted) }

// Budget is one evaluation unit's deadline budget. A nil *Budget is
// valid and never exhausted, so callers can check unconditionally.
type Budget struct {
	deadline time.Time
	clock    func() time.Time
}

// NewBudget returns a budget that exhausts d from now on the given
// clock (nil clock means time.Now). A non-positive d returns nil — no
// budget, never exhausted.
func NewBudget(d time.Duration, clock func() time.Time) *Budget {
	if d <= 0 {
		return nil
	}
	if clock == nil {
		clock = time.Now
	}
	return &Budget{deadline: clock().Add(d), clock: clock}
}

// Exhausted reports whether the budget's deadline has passed.
func (b *Budget) Exhausted() bool {
	if b == nil {
		return false
	}
	return !b.clock().Before(b.deadline)
}

type budgetKey struct{}

// ContextWithBudget attaches an evaluation unit's budget to ctx.
func ContextWithBudget(ctx context.Context, b *Budget) context.Context {
	if b == nil {
		return ctx
	}
	return context.WithValue(ctx, budgetKey{}, b)
}

// BudgetFrom returns the budget riding ctx, or nil (never exhausted).
func BudgetFrom(ctx context.Context) *Budget {
	b, _ := ctx.Value(budgetKey{}).(*Budget)
	return b
}

// budgetErr builds the shed error for a unit of work refused because
// its budget ran out. The message is static — no durations — because
// degradation reports must be byte-identical across schedules.
func budgetErr(host string) error {
	return MarkOutage(&HostError{Host: host, Err: ErrBudgetExhausted})
}

// WithDeadlineBudget refuses to start a fetch whose context carries an
// exhausted budget. It must be the OUTERMOST middleware: the shed is a
// per-caller verdict about this object's remaining time, and placing it
// above the cache/singleflight/memo keeps budget sheds out of every
// shared layer — a follower with time left still gets the page, and the
// outage memo never records "out of time" as a property of the site.
func WithDeadlineBudget(inner Fetcher, stats *Stats) Fetcher {
	return FetcherFunc(func(req *Request) (*Response, error) {
		if !BudgetFrom(req.Context()).Exhausted() {
			return inner.Fetch(req)
		}
		statsFor(req.Context(), stats).add(BudgetSheds, 1)
		trace.FromContext(req.Context()).Label("outcome", "budget-exhausted")
		return nil, budgetErr(hostOf(req.URL))
	})
}
