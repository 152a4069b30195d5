package web

import (
	"context"
	"time"
)

// Query is everything the fetch stack keeps for one query: its bill and
// the fault-tolerance state that must not outlive it. The layer that
// starts a query (core) mints one and attaches it with WithQuery; each
// middleware finds it on the request's context. The zero value is an
// unlimited, budget-free query.
//
// Billing: a page is billed to the query whose fetch reached the network;
// a singleflight follower is billed one Deduped and nothing else for that
// page; a cache hit or stale serve is billed to the query it was served
// to. A fetch with no query on its context counts into the Stats its
// middleware was constructed with instead. A hedge's losing attempt runs
// on after the fetch has returned: if it lands after the query's owner
// has folded the bill (Stats.Add), its page is counted nowhere.
type Query struct {
	// Stats is the query's bill.
	Stats Stats
	// RetryBudget caps the re-issued attempts the query may spend across
	// all its fetches (WithRetryPolicy), so a query over many flaky sites
	// cannot multiply its own page count unboundedly; HedgeBudget caps its
	// hedged second attempts (WithHedge). Each is a ceiling on the matching
	// count of the bill; 0 is unlimited.
	RetryBudget, HedgeBudget int64
	// Deadline is the time budget of each maximal object (NewBudget) on
	// Clock (nil means time.Now); 0 disables budgets.
	Deadline time.Duration
	Clock    func() time.Time
	// Memo replays the query's terminal site failures (WithOutageMemo).
	Memo OutageMemo
}

type queryKey struct{}

// WithQuery attaches q to ctx for the middlewares below.
func WithQuery(ctx context.Context, q *Query) context.Context {
	return context.WithValue(ctx, queryKey{}, q)
}

// QueryFrom returns the query riding ctx, or nil.
func QueryFrom(ctx context.Context) *Query {
	q, _ := ctx.Value(queryKey{}).(*Query)
	return q
}

// statsFor returns where a fetch on ctx counts: its query's bill, or
// fallback (which may be nil) when no query rides ctx.
func statsFor(ctx context.Context, fallback *Stats) *Stats {
	if q := QueryFrom(ctx); q != nil {
		return &q.Stats
	}
	return fallback
}

// spend bills one retry or hedge (c) to the query on ctx and reports true
// — unless that query's budget for c is already spent, when it bills
// nothing and reports false. Without a query it counts into fallback,
// unlimited.
func spend(ctx context.Context, fallback *Stats, c counter) bool {
	q := QueryFrom(ctx)
	if q == nil {
		fallback.add(c, 1)
		return true
	}
	limit := q.RetryBudget
	if c == hedges {
		limit = q.HedgeBudget
	}
	// Count, then give back on overdraft: exact under concurrent spenders,
	// where check-then-count would let two of them share the last unit.
	if n := q.Stats.n[c].Add(1); limit > 0 && n > limit {
		q.Stats.n[c].Add(-1)
		return false
	}
	return true
}

// NewBudget mints one maximal object's deadline budget; nil (never
// exhausted) when q is nil or has no Deadline. The UR layer calls it once
// per object so each object's clock starts at its own evaluation, not at
// query start — sequential evaluation would otherwise burn the later
// objects' budgets while the earlier ones run, making Workers=1 degrade
// differently from Workers=8.
func (q *Query) NewBudget() *Budget {
	if q == nil {
		return nil
	}
	return NewBudget(q.Deadline, q.Clock)
}
