package web

import "time"

// DefaultHostLimit is the per-host concurrency cap NewStack applies when
// Policy.HostLimit is zero: wide parallel evaluation, polite sites.
const DefaultHostLimit = 4

// Policy is every knob of the fetch stack, declared beside the middlewares
// that enforce them. The zero value retries nothing, hedges nothing, has no
// breaker and no deadline budget, caps each host at DefaultHostLimit with
// an unbounded queue, and caches pages that never expire.
type Policy struct {
	// Retries re-attempts failed page fetches (transport errors only;
	// webbase navigation is read-only, so retrying is safe). 0 disables.
	Retries int
	// Backoff spaces re-issued retry attempts exponentially with
	// deterministic per-URL jitter. The zero value retries immediately.
	Backoff Backoff
	// RetryBudget caps the total re-issued attempts any single query may
	// spend across all of its fetches, so a query over many flaky sites
	// cannot multiply its own page count unboundedly. 0 = unlimited.
	RetryBudget int64
	// HostLimit caps concurrent fetches per site — the politeness bound
	// that keeps wide parallel evaluation from hammering one host. 0
	// applies DefaultHostLimit; negative disables the cap.
	HostLimit int
	// HostQueue bounds each per-host bulkhead's wait queue: fetches
	// beyond HostLimit executing + HostQueue waiting are shed with an
	// outage-classified error and the owning object degrades. 0 queues
	// without bound and never sheds.
	HostQueue int
	// HedgeAfter issues a second attempt for any fetch still unanswered
	// after this delay, taking the first success. 0 disables hedging.
	HedgeAfter time.Duration
	// HedgeBudget caps the total hedged (duplicate) attempts any single
	// query may spend across all of its fetches; beyond it, slow fetches
	// wait for their primary attempt instead of doubling load. 0 =
	// unlimited (every eligible fetch may hedge).
	HedgeBudget int64
	// Breaker, when non-nil, installs the per-host circuit breaker with
	// this configuration (its Clock defaults to the stack's). nil disables
	// the breaker. Breaker verdicts depend on fetch completion order, so
	// under partial failure a breaker-enabled webbase trades the
	// byte-identical-across-workers guarantee for fast-fail; with the
	// breaker off, degraded answers stay schedule-independent.
	Breaker *BreakerConfig
	// Deadline is the per-maximal-object time budget: once an object has
	// run this long, no new fetch or dependent-join invocation starts on
	// its behalf and the object degrades out of the answer exactly like
	// an unreachable site. 0 disables budgets. Like the breaker, budgets
	// trade byte-identical answers for bounded latency when the clock (not
	// the simulated web) decides what completes.
	Deadline time.Duration
	// CacheMaxAge bounds how long a cached page satisfies a fetch
	// outright. 0 = entries never expire.
	CacheMaxAge time.Duration
	// AllowStale serves expired cache entries when a site cannot be
	// reached (stale-on-error), labeled outcome=stale in traces.
	AllowStale bool
}

// Stack is one webbase's fetch stack, as NewStack assembled it.
type Stack struct {
	// Fetcher is the top of the stack, the one every query navigates with.
	Fetcher Fetcher
	// Repair is the stack below the cache: retry, latency accounting and
	// the politeness bulkhead apply, but never the cache (a repair must
	// see the live redesigned site, not a cached pre-redesign page), the
	// breaker, hedging or per-query state.
	Repair Fetcher
	// Cache is the page cache: Section 7 observes that caching is needed
	// for acceptable response times, so every stack has one.
	Cache *Cache
	// Breaker is the per-host circuit breaker; nil unless Policy.Breaker.
	Breaker *Breaker
	// Stats counts the fetches no query owns and receives each finished
	// query's bill (Stats.Add); PeakInFlight and PerHost live only here.
	Stats *Stats

	deadline time.Duration
	clock    func() time.Time
}

// NewStack assembles the fetch stack over raw. It is the one place the
// order is written, outermost first as a fetch traverses it:
//
//	deadline budget → cache lookup → singleflight → cache fill →
//	outage memo → breaker → hedge → bulkhead → latency → counting →
//	retry → raw
//
// The deadline budget is outermost: a shed is this object's verdict about
// its own remaining time and must never leak into the shared
// cache/singleflight/memo layers. The cache lookup comes next so hits
// bypass everything. Singleflight collapses concurrent identical misses
// to one fetch before anyone queues for a host slot; the fill sits inside
// the flight, so a page is in the cache before the flight that fetched it
// is forgotten. The per-query outage memo sits directly below the
// singleflight, so each request key's terminal verdict is decided exactly
// once and replayed schedule-independently. Both are a once.Table keyed by
// the request's key (the stack's and the query's), so a cancelled waiter
// stops waiting at once and a leader's failure that follows its own
// cancellation is handed to no one (DESIGN.md §16). The breaker rejects
// before a doomed fetch can queue for a host slot, and it sits above the
// hedge so it records one verdict per logical fetch rather than one per
// attempt.
// The hedge duplicates only the network attempt: everything above it sees
// a single fetch. The bulkhead wraps the latency/counting pair, so a fetch
// holds its host slot for the whole (simulated) network exchange. Retry
// hugs the raw fetcher, so each attempt is an independent transport try;
// being the innermost failure handler, it is also where terminal failures
// are classified as outages and attributed to their host.
//
// A zero latency model adds no latency layer. clock (nil means time.Now)
// stamps cache entries, drives the breaker unless its config names a
// clock, and times each query's deadline budgets. tier, when non-nil, is
// the cache's lower tier.
func NewStack(raw Fetcher, latency LatencyModel, clock func() time.Time, tier CacheTier, p Policy) *Stack {
	s := &Stack{Stats: &Stats{}, deadline: p.Deadline, clock: clock}
	f := Counting(WithRetryPolicy(raw, p, s.Stats), s.Stats)
	if latency != (LatencyModel{}) {
		f = WithLatency(f, latency, s.Stats)
	}
	hostLimit := p.HostLimit
	if hostLimit == 0 {
		hostLimit = DefaultHostLimit
	}
	f = WithBulkhead(f, hostLimit, p.HostQueue, s.Stats)
	s.Repair = f
	f = WithHedge(f, p, s.Stats)
	if p.Breaker != nil {
		bc := *p.Breaker
		if bc.Clock == nil {
			bc.Clock = clock
		}
		s.Breaker = NewBreaker(f, bc, s.Stats)
		f = s.Breaker
	}
	f = WithOutageMemo(f)
	s.Cache = NewCache()
	s.Cache.MaxAge = p.CacheMaxAge
	s.Cache.AllowStale = p.AllowStale
	s.Cache.Clock = clock
	s.Cache.Tier = tier
	f = WithCacheLookup(WithSingleflight(WithCacheFill(f, s.Cache), s.Stats), s.Cache)
	if p.Deadline > 0 {
		f = WithDeadlineBudget(f, s.Stats)
	}
	s.Fetcher = f
	return s
}

// NewQuery mints one query's state for this stack: an empty bill and
// outage memo, and the policy's per-object deadline budget on the stack's
// clock.
func (s *Stack) NewQuery() *Query {
	return &Query{Deadline: s.deadline, Clock: s.clock}
}
