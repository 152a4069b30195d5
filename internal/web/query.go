package web

import (
	"context"
	"sync"
	"time"

	"webbase/internal/once"
)

// Query is everything the fetch stack keeps for one query: its bill, the
// fault-tolerance state that must not outlive it, and the pages the
// navigation layer keeps for it (Load). The layer that starts a query
// (core) mints one (Stack.NewQuery) and attaches it with WithQuery; each
// middleware finds it on the request's context. The zero value is a query
// with no deadline budget.
//
// Billing: a page is billed to the query whose fetch reached the network;
// a singleflight follower is billed one Deduped and nothing else for that
// page (unless its cancelled leader failed, and it fetched for itself); a
// cache hit or stale serve is billed to the query it was served to; a visit
// served a kept page is billed one Reused and never reaches the fetch
// stack. A fetch with no query on its context counts into the Stats its
// middleware was constructed with instead. A hedge's losing attempt runs on
// after the fetch has returned: if it lands after the query's owner has
// folded the bill (Stats.Add), its page is counted nowhere.
type Query struct {
	// Stats is the query's bill. Its Hedges are what the query has spent
	// of Policy.HedgeBudget.
	Stats Stats
	// Deadline is the time budget of each maximal object (NewBudget) on
	// Clock (nil means time.Now); 0 disables budgets.
	Deadline time.Duration
	Clock    func() time.Time

	cache *Cache                // the stack's (Stack.NewQuery); nil in a literal
	memo  once.Table[*Response] // terminal site failures (WithOutageMemo)
	// What Load remembers: the request keys visited, and the pages kept.
	visitedMu sync.Mutex
	visited   map[string]struct{}
	kept      once.Table[any]
}

// Load is how the navigation layer loads the page a request leads to, by
// the request's key: load loads it, unless this query has kept that page,
// and the bool reports that it had (billed one Reused). The query's first
// visit of a request keeps nothing. Its second keeps a successful load.
// Every later visit, and any arriving while the keeping load runs, is
// handed that page; if the load failed, the next visit loads and keeps in
// its place. load is told whether the query will keep what it loads: a
// page no one keeps is its visit's alone. A wait ends with ctx's error when
// ctx is done. A nil Query keeps nothing.
//
// Keeping from the second visit, not the first, is what lets a query that
// repeats no request hold no page past the states standing on it
// (DESIGN.md §12). What is kept goes with the Query, when the query ends.
func (q *Query) Load(ctx context.Context, key string, load func(keep bool) (any, error)) (any, bool, error) {
	if q == nil || q.firstVisit(key) {
		page, err := load(false)
		return page, false, err
	}
	page, kept, err := q.kept.Do(ctx, key, func() (any, error) { return load(true) }, once.Successes[any])
	if kept {
		q.Stats.add(Reused, 1)
	}
	return page, kept, err
}

// Key returns the key string that b, a key AppendKey encoded, stands for.
// When the query's stack caches that key's page, it is the string the cache
// entry is stored under, so a visit of a cached page allocates no key; it
// is a copy of b otherwise. Either way it is a string of its own, which the
// fetch stack and the query's page set may keep, never a view of b. A nil
// Query, or one that is not its stack's, copies.
func (q *Query) Key(b []byte) string {
	if q != nil && q.cache != nil {
		if key, ok := q.cache.key(b); ok {
			return key
		}
	}
	return string(b)
}

// firstVisit records a visit of key and reports whether it was the first.
func (q *Query) firstVisit(key string) bool {
	q.visitedMu.Lock()
	defer q.visitedMu.Unlock()
	if _, seen := q.visited[key]; seen {
		return false
	}
	if q.visited == nil {
		q.visited = make(map[string]struct{})
	}
	q.visited[key] = struct{}{}
	return true
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

// spend bills one hedge (c) to the query on ctx and reports true
// — unless that query has already spent limit of them (0 is unlimited),
// when it bills nothing and reports false. Without a query it counts into
// fallback, unlimited.
func spend(ctx context.Context, fallback *Stats, c Counter, limit int64) bool {
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
