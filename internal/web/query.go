package web

import (
	"context"
	"sync"
	"time"
)

// Query is everything the fetch stack keeps for one query: its bill, the
// fault-tolerance state that must not outlive it, and the pages the
// navigation layer keeps for it (Visit). The layer that starts a query
// (core) mints one (Stack.NewQuery) and attaches it with WithQuery; each
// middleware finds it on the request's context. The zero value is a query
// with no deadline budget.
//
// Billing: a page is billed to the query whose fetch reached the network;
// a singleflight follower is billed one Deduped and nothing else for that
// page; a cache hit or stale serve is billed to the query it was served
// to; a visit served a kept page is billed one Reused and never reaches
// the fetch stack. A fetch with no query on its context counts into the
// Stats its middleware was constructed with instead. A hedge's losing
// attempt runs on after the fetch has returned: if it lands after the
// query's owner has folded the bill (Stats.Add), its page is counted
// nowhere.
type Query struct {
	// Stats is the query's bill. Its Retries and Hedges are what the
	// query has spent of Policy.RetryBudget and Policy.HedgeBudget.
	Stats Stats
	// Deadline is the time budget of each maximal object (NewBudget) on
	// Clock (nil means time.Now); 0 disables budgets.
	Deadline time.Duration
	Clock    func() time.Time
	// Memo replays the query's terminal site failures (WithOutageMemo).
	Memo OutageMemo

	// pages is what Visit remembers: every request key the query has
	// visited, and the pages it kept.
	pagesMu sync.Mutex
	pages   map[string]*keptPage // nil value: visited once, nothing kept
}

// keptPage is the page of a request its query has visited twice.
type keptPage struct {
	done chan struct{} // closed when the keeping load has ended
	page any           // nil if that load failed; written before done closes
}

// Visit is asked by the navigation layer before it loads the page a request
// leads to, with the request's key: has this query kept that page? The
// query's first visit of a request keeps nothing. Its second is told to
// keep its load (keep is true), and must report the load to Loaded, failed
// or not. Every later visit, and any arriving while the keeping load runs,
// waits for that load and is handed its page (billed one Reused); if the
// load failed, the next visit loads and keeps in its place. A nil Query
// keeps nothing.
//
// Keeping from the second visit, not the first, is what lets a query that
// repeats no request hold no page past the states standing on it
// (DESIGN.md §12). What is kept goes with the Query, when the query ends.
func (q *Query) Visit(key string) (page any, keep bool) {
	if q == nil {
		return nil, false
	}
	for {
		q.pagesMu.Lock()
		k, seen := q.pages[key]
		switch {
		case !seen:
			if q.pages == nil {
				q.pages = make(map[string]*keptPage)
			}
			q.pages[key] = nil
			q.pagesMu.Unlock()
			return nil, false
		case k == nil:
			q.pages[key] = &keptPage{done: make(chan struct{})}
			q.pagesMu.Unlock()
			return nil, true
		}
		q.pagesMu.Unlock()
		<-k.done
		if k.page != nil {
			q.Stats.add(reused, 1)
			return k.page, false
		}
	}
}

// Loaded ends the keeping load Visit asked for: page is what it loaded,
// nil if it failed. A failed load is not kept.
func (q *Query) Loaded(key string, page any) {
	q.pagesMu.Lock()
	k := q.pages[key]
	if page == nil {
		q.pages[key] = nil
	}
	q.pagesMu.Unlock()
	k.page = page
	close(k.done)
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
// — unless that query has already spent limit of them (0 is unlimited),
// when it bills nothing and reports false. Without a query it counts into
// fallback, unlimited.
func spend(ctx context.Context, fallback *Stats, c counter, limit int64) bool {
	q := QueryFrom(ctx)
	if q == nil {
		fallback.add(c, 1)
		return true
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
