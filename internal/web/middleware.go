package web

import (
	"context"
	"errors"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"webbase/internal/trace"
)

// counter names one additive count of a Stats.
type counter int

const (
	pages counter = iota
	bodyBytes
	simulated   // accumulated simulated latency, nanoseconds
	cacheHits   // pages a Cache served a query without calling below it
	staleServed // expired entries a Cache served a query on error
	deduped     // fetches collapsed onto an in-flight one by WithSingleflight
	limiterWait // accumulated time spent waiting for host slots, ns
	retries     // failed attempts that WithRetry re-issued
	breakerRejects
	hedges
	hedgeWins
	hedgesSuppressed
	bulkheadSheds
	budgetSheds
	numCounters
)

// Stats accumulates fetch statistics. It is safe for concurrent use and is
// how the experiment harness reports the paper's "# of pages" column.
//
// A Stats is either one query's bill (Query.Stats: every middleware counts
// there while that query rides the request's context) or the Stats a stack
// was constructed with, which counts the fetches no query owns (the repair
// worker, PopulateAll, hand-built stacks) and receives each finished
// query's bill through Add.
type Stats struct {
	n [numCounters]atomic.Int64
	// Lifetime-only state, kept on the Stats a middleware was constructed
	// with and never on a query's: the in-flight gauge with its high-water
	// mark (WithBulkhead) and the per-host page counts (Counting).
	inflight     atomic.Int64
	peakInflight atomic.Int64
	mu           sync.Mutex
	perHost      map[string]int64
}

// add counts d under c; a nil Stats counts nothing.
func (s *Stats) add(c counter, d int64) {
	if s != nil {
		s.n[c].Add(d)
	}
}

// Add folds a finished query's counts into s.
func (s *Stats) Add(q *Stats) {
	for c := range s.n {
		s.n[c].Add(q.n[c].Load())
	}
}

// Pages returns the number of successful fetches observed.
func (s *Stats) Pages() int64 { return s.n[pages].Load() }

// Bytes returns the total body bytes fetched.
func (s *Stats) Bytes() int64 { return s.n[bodyBytes].Load() }

// SimulatedLatency returns the total simulated network latency accumulated
// by latency fetchers sharing this Stats, whether or not they actually
// slept.
func (s *Stats) SimulatedLatency() time.Duration {
	return time.Duration(s.n[simulated].Load())
}

// CacheHits returns how many pages a Cache served to queries billed here
// (a hit outside any query counts only in Cache.Hits).
func (s *Stats) CacheHits() int64 { return s.n[cacheHits].Load() }

// StaleServed returns how many expired cache entries were served to
// queries billed here because the network path failed.
func (s *Stats) StaleServed() int64 { return s.n[staleServed].Load() }

// Deduped returns how many fetches were collapsed onto an identical
// in-flight request by WithSingleflight (each counted fetch got its answer
// without touching the network).
func (s *Stats) Deduped() int64 { return s.n[deduped].Load() }

// PeakInFlight returns the high-water mark of concurrently executing
// fetches observed by WithHostLimit — how parallel the fetch stack
// actually ran. It is a gauge of the stack, not a count: queries' fetches
// overlap, so it lives only on the Stats the stack was constructed with.
func (s *Stats) PeakInFlight() int64 { return s.peakInflight.Load() }

// LimiterWait returns the total time fetches spent queued behind the
// per-host concurrency cap of WithHostLimit.
func (s *Stats) LimiterWait() time.Duration {
	return time.Duration(s.n[limiterWait].Load())
}

// Retries returns how many failed fetch attempts WithRetry re-issued.
func (s *Stats) Retries() int64 { return s.n[retries].Load() }

// BreakerRejects returns how many fetches an open circuit breaker
// rejected without touching the network.
func (s *Stats) BreakerRejects() int64 { return s.n[breakerRejects].Load() }

// Hedges returns how many fetches WithHedge backed with a second
// attempt because the first had not answered within the hedge delay.
func (s *Stats) Hedges() int64 { return s.n[hedges].Load() }

// HedgeWins returns how many hedged fetches were answered by the second
// attempt rather than the first.
func (s *Stats) HedgeWins() int64 { return s.n[hedgeWins].Load() }

// HedgesSuppressed returns how many hedges WithHedge declined to issue
// because the query's hedge budget was dry.
func (s *Stats) HedgesSuppressed() int64 { return s.n[hedgesSuppressed].Load() }

// BulkheadSheds returns how many fetches a saturated host bulkhead shed
// without queueing.
func (s *Stats) BulkheadSheds() int64 { return s.n[bulkheadSheds].Load() }

// BudgetSheds returns how many fetches were refused because their
// evaluation unit's deadline budget was exhausted.
func (s *Stats) BudgetSheds() int64 { return s.n[budgetSheds].Load() }

// PerHost returns a copy of the per-host page counts.
func (s *Stats) PerHost() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.perHost))
	for h, n := range s.perHost {
		out[h] = n
	}
	return out
}

// countHost adds one page to the host's lifetime count.
func (s *Stats) countHost(host string) {
	s.mu.Lock()
	if s.perHost == nil {
		s.perHost = make(map[string]int64)
	}
	s.perHost[host]++
	s.mu.Unlock()
}

// HostOf returns the host part of a URL as the per-host statistics and
// the host limiter see it.
func HostOf(rawurl string) string { return hostOf(rawurl) }

func hostOf(rawurl string) string {
	// Cheap host extraction; URLs in the simulator are well-formed.
	const scheme = "://"
	i := indexOf(rawurl, scheme)
	if i < 0 {
		return rawurl
	}
	rest := rawurl[i+len(scheme):]
	for j := 0; j < len(rest); j++ {
		if rest[j] == '/' || rest[j] == '?' {
			return rest[:j]
		}
	}
	return rest
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// Counting wraps inner so that every fetch is recorded: the page and its
// bytes on the bill of the query that made it (stats when there is none),
// the host always in stats. A fetch that reaches this layer touched the
// network (the cache and singleflight sit above), so the request's trace
// span — when one rides the request context — is marked outcome=network.
func Counting(inner Fetcher, stats *Stats) Fetcher {
	return FetcherFunc(func(req *Request) (*Response, error) {
		resp, err := inner.Fetch(req)
		if err == nil {
			bill := statsFor(req.Context(), stats)
			bill.add(pages, 1)
			if resp != nil {
				bill.add(bodyBytes, int64(len(resp.Body)))
			}
			stats.countHost(hostOf(req.URL))
			trace.FromContext(req.Context()).Label("outcome", "network")
		}
		return resp, err
	})
}

// LatencyModel describes deterministic simulated network latency:
// PerRequest is charged per fetch and PerKB per 1024 body bytes. Jitter
// adds a per-URL deterministic extra in [0, Jitter) derived from a hash of
// the URL, so runs are reproducible but sites are not uniform.
type LatencyModel struct {
	PerRequest time.Duration
	PerKB      time.Duration
	Jitter     time.Duration
	// Sleep controls whether the fetcher actually sleeps (true: elapsed
	// time in benchmarks reflects the model) or only accounts virtual time
	// in Stats (false: fast tests).
	Sleep bool
}

// Latency returns the deterministic delay the model assigns to a fetch of
// the given URL returning n body bytes.
func (m LatencyModel) Latency(rawurl string, n int) time.Duration {
	d := m.PerRequest + m.PerKB*time.Duration(n/1024)
	if m.Jitter > 0 {
		h := fnv.New32a()
		h.Write([]byte(rawurl))
		d += time.Duration(uint64(h.Sum32()) % uint64(m.Jitter))
	}
	return d
}

// WithLatency wraps inner with the latency model, accumulating simulated
// latency into stats (which may be shared with Counting).
func WithLatency(inner Fetcher, model LatencyModel, stats *Stats) Fetcher {
	return FetcherFunc(func(req *Request) (*Response, error) {
		resp, err := inner.Fetch(req)
		if err != nil {
			return resp, err
		}
		d := model.Latency(req.URL, len(resp.Body))
		statsFor(req.Context(), stats).add(simulated, int64(d))
		trace.FromContext(req.Context()).Label("simulated-latency", d.String())
		if model.Sleep {
			time.Sleep(d)
		}
		return resp, err
	})
}

// Cache is a concurrency-safe page cache keyed by the full request key.
// The paper's Section 7 observes that caching is one of the techniques
// needed for acceptable response time when querying many sites.
//
// Entries carry their fetch timestamp. With MaxAge set, an entry older
// than MaxAge no longer satisfies a fetch — but it is kept, and when
// AllowStale is on it is served as a last resort if the network path
// fails ("Maintaining Consistency of Data on the Web": possibly-stale
// content beats no content when the source is unreachable). MaxAge,
// AllowStale and Clock are configuration: set them before the cache is
// used, not concurrently with fetching.
type Cache struct {
	// MaxAge bounds how long an entry satisfies a fetch outright.
	// 0 means entries never expire (the historical behavior).
	MaxAge time.Duration
	// AllowStale serves an expired entry when the wrapped fetch fails
	// (stale-on-error). The serve is labeled outcome=stale on the trace
	// span and counted in Stale.
	AllowStale bool
	// Clock supplies entry timestamps; nil means time.Now.
	Clock func() time.Time
	// Tier, when non-nil, is a second cache tier strictly below this one
	// (typically disk-backed): misses consult it before the network, fills
	// write through to it, and Clear invalidates it. Like MaxAge it is
	// configuration — set before the cache is used.
	Tier CacheTier

	mu      sync.RWMutex
	entries map[string]*cacheEntry
	gen     uint64 // bumped by Clear; fills from older generations are dropped
	hits    atomic.Int64
	misses  atomic.Int64
	stale   atomic.Int64
	// tierHits counts misses answered by the second tier instead of the
	// network. Tier hits also count as Hits: above this layer they are
	// indistinguishable from memory hits.
	tierHits atomic.Int64
}

// CacheTier is a second cache tier below Cache — the seam the durable
// store plugs into without this package importing it. Implementations
// must be safe for concurrent use. Load returns the page and its original
// fetch time (freshness is judged by the same MaxAge as memory entries);
// any internal failure is reported as a plain miss. Store and Invalidate
// are called while the Cache holds its own lock, so a tier observes
// fills and invalidations in a consistent order; they must not call back
// into the Cache.
type CacheTier interface {
	Load(key string) (*Response, time.Time, bool)
	Store(key string, resp *Response, fetchedAt time.Time)
	Invalidate()
}

// cacheEntry is a cached response stamped with when it was fetched.
type cacheEntry struct {
	resp      *Response
	fetchedAt time.Time
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]*cacheEntry)}
}

// Hits returns the number of cache hits served.
func (c *Cache) Hits() int64 { return c.hits.Load() }

// Misses returns the number of fetches that went to the network.
func (c *Cache) Misses() int64 { return c.misses.Load() }

// Stale returns the number of expired entries served because the network
// path failed (stale-on-error).
func (c *Cache) Stale() int64 { return c.stale.Load() }

// TierHits returns the number of misses answered by the second tier
// instead of the network (also counted in Hits).
func (c *Cache) TierHits() int64 { return c.tierHits.Load() }

// Generation reports how many times the cache has been cleared. Each
// Clear invalidates every page the system had seen, so the generation is
// a cheap staleness guard: two observations under the same generation
// were answered from the same set of pages (a resumed query stream uses
// this to refuse splicing answers from two different webs).
func (c *Cache) Generation() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.gen
}

// Len returns the number of cached responses.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Clear empties the cache (e.g. when the map builder detects site change)
// and invalidates in-flight fills: a response that started fetching
// before the Clear will not be stored, so a deliberately-dropped page
// cannot resurrect itself mid-flight.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]*cacheEntry)
	c.gen++
	// Invalidate the lower tier under the same lock: a fill racing this
	// Clear either committed before it (and is now invalid in both tiers)
	// or will fail the generation check and store nowhere.
	if c.Tier != nil {
		c.Tier.Invalidate()
	}
}

func (c *Cache) now() time.Time {
	if c.Clock != nil {
		return c.Clock()
	}
	return time.Now()
}

// peek returns the entry stored under key, if any, and the generation it
// was read under: a fill decided on after this read is dropped if a Clear
// has intervened.
func (c *Cache) peek(key string) (*cacheEntry, uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.entries[key], c.gen
}

// fresh reports whether an entry fetched at fetchedAt still satisfies a
// fetch outright at now.
func (c *Cache) fresh(fetchedAt, now time.Time) bool {
	return c.MaxAge <= 0 || now.Sub(fetchedAt) <= c.MaxAge
}

// hit serves a cached response: counted, billed to the request's query
// and labeled on its span.
func (c *Cache) hit(req *Request, resp *Response) (*Response, error) {
	c.hits.Add(1)
	statsFor(req.Context(), nil).add(cacheHits, 1)
	trace.FromContext(req.Context()).Label("outcome", "cache")
	return resp, nil
}

// WithCache wraps inner with the cache. Responses are cached by full
// request key, so identical form submissions hit too — dynamic pages for
// the same inputs are assumed stable within a query session. It is
// WithCacheLookup directly over WithCacheFill; a stack that collapses
// concurrent misses puts WithSingleflight between the two, so that a fill
// is in the cache before its flight is forgotten and a request that just
// missed either joins the flight or finds the page.
func WithCache(inner Fetcher, cache *Cache) Fetcher {
	return WithCacheLookup(WithCacheFill(inner, cache), cache)
}

// WithCacheLookup is the read half of WithCache: hits (memory, then the
// lower tier) are served without calling inner, and an expired entry is
// served stale when inner fails and AllowStale is on. It stores nothing
// fetched; inner must end in WithCacheFill.
func WithCacheLookup(inner Fetcher, cache *Cache) Fetcher {
	return FetcherFunc(func(req *Request) (*Response, error) {
		key := req.Key()
		e, gen := cache.peek(key)
		now := cache.now()
		if e != nil && cache.fresh(e.fetchedAt, now) {
			return cache.hit(req, e.resp)
		}
		// Memory miss: consult the lower tier before the network. A tier
		// entry is judged by the same freshness rule; a fresh one is
		// promoted into memory (under the generation check, so a racing
		// Clear still wins) and served as a hit. An expired one stands in
		// for an expired memory entry: kept for stale-on-error below.
		if e == nil && cache.Tier != nil {
			if resp, fetchedAt, ok := cache.Tier.Load(key); ok {
				te := &cacheEntry{resp: resp, fetchedAt: fetchedAt}
				cache.mu.Lock()
				if cache.gen == gen {
					cache.entries[key] = te
				}
				cache.mu.Unlock()
				if cache.fresh(fetchedAt, now) {
					cache.tierHits.Add(1)
					return cache.hit(req, resp)
				}
				e = te
			}
		}
		resp, err := inner.Fetch(req)
		// Stale-on-error: the site is unreachable but we still hold
		// its last answer. Cancellation is the caller's choice, not
		// the site's failure — never paper over it with stale data.
		if err != nil && e != nil && cache.AllowStale &&
			!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			cache.stale.Add(1)
			statsFor(req.Context(), nil).add(staleServed, 1)
			sp := trace.FromContext(req.Context())
			sp.Label("outcome", "stale")
			sp.Label("stale-age", now.Sub(e.fetchedAt).String())
			return e.resp, nil
		}
		return resp, err
	})
}

// WithCacheFill is the write half of WithCache: it stores what inner
// fetches. It looks first, because the request may have missed in
// WithCacheLookup while another request's fill of the same page was
// finishing; that costs a miss one map read and a hit nothing.
func WithCacheFill(inner Fetcher, cache *Cache) Fetcher {
	return FetcherFunc(func(req *Request) (*Response, error) {
		key := req.Key()
		e, gen := cache.peek(key)
		if e != nil && cache.fresh(e.fetchedAt, cache.now()) {
			return cache.hit(req, e.resp)
		}
		resp, err := inner.Fetch(req)
		if err != nil {
			return nil, err
		}
		cache.misses.Add(1)
		cache.mu.Lock()
		// Drop fills that began under an older generation: Clear() was
		// called while this fetch was in flight, so the response may be
		// exactly the page the clear meant to discard. The tier write-through
		// happens inside the same guarded section: a dropped fill must not
		// reach disk either, or it would resurrect at the next restart.
		if cache.gen == gen {
			fetchedAt := cache.now()
			cache.entries[key] = &cacheEntry{resp: resp, fetchedAt: fetchedAt}
			if cache.Tier != nil {
				cache.Tier.Store(key, resp, fetchedAt)
			}
		}
		cache.mu.Unlock()
		return resp, nil
	})
}
