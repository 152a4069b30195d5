// Package core assembles the paper's three-layer webbase (Figure 1): the
// virtual physical schema (navigation independence), the logical layer
// (site independence) and the external schema layer (the structured
// universal relation), all executing against a Web fetcher.
//
// This is the system a user of the library instantiates: New builds the
// standard used-car webbase over any fetcher (the in-process simulated
// Web, an HTTP adapter, ...); Query answers ad hoc universal-relation
// queries end to end — UR planning → logical views → binding-aware
// dependent joins → navigation-calculus execution → pages.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"webbase/internal/algebra"
	"webbase/internal/health"
	"webbase/internal/logical"
	"webbase/internal/mapbuilder"
	"webbase/internal/navmap"
	"webbase/internal/prune"
	"webbase/internal/relation"
	"webbase/internal/store"
	"webbase/internal/trace"
	"webbase/internal/ur"
	"webbase/internal/vps"
	"webbase/internal/web"
)

// Config controls webbase assembly. The fetch stack's knobs are Fetch and
// the self-healing ones Healing, each declared by the package that
// enforces it.
type Config struct {
	// Fetcher retrieves raw pages. Required.
	Fetcher web.Fetcher
	// Latency, when non-zero, wraps the fetcher with the simulated
	// network latency model (see web.LatencyModel.Sleep for whether it
	// actually sleeps or only accounts).
	Latency web.LatencyModel
	// Workers bounds parallel query evaluation: union branches,
	// dependent-join handle invocations and maximal objects evaluate on
	// up to Workers goroutines (and PopulateAll sweeps up to Workers
	// sites at once). 0 means GOMAXPROCS; 1 forces strictly sequential
	// evaluation on the calling goroutine.
	Workers int
	// Clock supplies timestamps for trace spans, query timing, cache
	// entries, the breaker and deadline budgets. nil means time.Now;
	// tests inject a fake clock to make every rendered timing
	// reproducible.
	Clock func() time.Time
	// Strict restores whole-query fail-fast: a site outage aborts the
	// query with the taxonomized per-site error instead of degrading to
	// the surviving maximal objects.
	Strict bool
	// Prune enables runtime access-relevance pruning (Benedikt, Gottlob &
	// Senellart): handle invocations whose bound inputs already violate
	// the query's WHERE clause are skipped before any page is fetched,
	// dependent-join feeds whose upstream bindings are doomed are never
	// invoked, and — for LIMIT queries where truncation is
	// order-oblivious — maximal objects stop launching once the limit is
	// satisfied. The answer is always byte-identical to the unpruned one;
	// only the fetch count changes. Off by default.
	Prune bool
	// MaxInFlight caps concurrently executing queries (admission
	// control). Excess queries wait in a bounded FIFO queue of QueueDepth
	// and are shed with ErrShedded beyond that. 0 disables the gate.
	MaxInFlight int
	// QueueDepth bounds the admission wait queue behind MaxInFlight.
	// 0 means no queue: with the gate full, queries shed immediately.
	QueueDepth int
	// StateDir, when non-empty, roots the durable state tier: warmed
	// pages, repaired navigation maps and breaker/health verdicts are
	// persisted there (crash-safely, fingerprinted) and restored at the
	// next boot. The store sits strictly below the in-memory stacks as a
	// second cache tier — never a source of truth — so answers are
	// byte-identical with it on or off, and a missing or corrupt state
	// dir degrades to a cold start (counted in store_corrupt_total)
	// rather than failing assembly or any query. Empty persists nothing.
	StateDir string
	// StateMaxBytes bounds the durable page tier's total payload bytes
	// (Config.StateDir): beyond it the least-recently-touched persisted
	// pages are evicted, counted in store_evicted_total{tier="pages"}.
	// The bound is rebuilt from disk at boot, so it holds across restarts
	// (a tightened bound trims the tier immediately). 0 keeps the tier
	// unbounded. An evicted page is a future cache miss, never an error —
	// the tier stays strictly a cache.
	StateMaxBytes int64
	// Fetch is the fetch stack's policy: retries and their budget, the
	// per-host bulkhead, hedging, the breaker, deadline budgets and cache
	// freshness (web.Policy; its zero value is a plain cached stack).
	Fetch web.Policy
	// Healing tunes self-healing, active only when the Domain supplies
	// SampleInputs: how many drift reports quarantine a site and how its
	// repair is retried (health.Policy).
	Healing health.Policy
}

// Webbase is an assembled three-layer webbase.
type Webbase struct {
	Registry *vps.Registry    // the virtual physical schema
	Logical  *logical.Catalog // the logical layer
	UR       *ur.Schema       // the external schema layer

	stack     *web.Stack
	workers   int
	clock     func() time.Time
	metrics   *trace.Registry
	strict    bool
	prune     bool
	admission *admission

	// Self-healing: health tracks per-site drift state and drives the
	// background repair worker, which fetches through stack.Repair;
	// sampleInputs feed the repair walk through the site's forms.
	health       *health.Tracker
	sampleInputs map[string]string

	// Durable state tier (nil without Config.StateDir): the store holds
	// the state files, pageTier is the disk tier behind the page cache.
	store    *store.Store
	pageTier *store.PageTier
}

// Domain describes how to assemble the three layers of one application
// domain (the paper: "webbases will be designed for application domains —
// such as cars, jobs, houses — by the experts in those domains"). The
// used-car domain is built in; other domains (e.g. internal/apartments)
// provide their own Domain.
type Domain struct {
	// Registry builds the domain's virtual physical schema.
	Registry func() (*vps.Registry, error)
	// Logical builds the domain's view catalog over the VPS.
	Logical func(reg *vps.Registry, f web.Fetcher) (*logical.Catalog, error)
	// UR builds the domain's structured universal relation.
	UR func() (*ur.Schema, error)
	// SampleInputs are representative query inputs the self-healing
	// repair worker uses to walk a drifted site's forms and verify a
	// repaired map end to end. nil disables self-healing for the domain.
	SampleInputs map[string]string
}

// UsedCarsDomain is the paper's running domain.
var UsedCarsDomain = Domain{
	Registry: vps.StandardRegistry,
	Logical:  logical.StandardCatalog,
	UR:       ur.UsedCarUR,
	// Inputs every standard site's forms accept, so the repair worker can
	// walk any of them; the make/model pair is one the simulated sites
	// list, letting a repaired map be verified end to end.
	SampleInputs: map[string]string{
		"Make": "ford", "Model": "escort", "Condition": "good",
		"Year": "1994", "ZipCode": "11201", "Duration": "36",
	},
}

// New assembles the standard used-car webbase over the configured fetcher.
func New(cfg Config) (*Webbase, error) {
	return NewDomain(cfg, UsedCarsDomain)
}

// NewDomain assembles a webbase for an arbitrary application domain.
func NewDomain(cfg Config, d Domain) (_ *Webbase, err error) {
	if cfg.Fetcher == nil {
		return nil, fmt.Errorf("core: Config.Fetcher is required")
	}
	wb := &Webbase{workers: cfg.Workers, clock: cfg.Clock, metrics: trace.NewRegistry(),
		strict: cfg.Strict, prune: cfg.Prune, sampleInputs: d.SampleInputs}
	if wb.workers <= 0 {
		wb.workers = runtime.GOMAXPROCS(0)
	}
	// Durable state tier: opened first so the stack can plug into it. An
	// unopenable state dir is a cold start with a metric, never an
	// assembly failure — the store is a cache, and a broken cache may not
	// take the system down.
	fetch := cfg.Fetch
	var tier web.CacheTier
	if cfg.StateDir != "" {
		st, err := store.Open(cfg.StateDir, store.Options{Metrics: wb.metrics})
		if err != nil {
			wb.metrics.Counter("store_corrupt_total").Add(1)
			wb.metrics.Counter(`store_corrupt_total{tier="open"}`).Add(1)
		} else {
			wb.store = st
			wb.pageTier = store.NewPageTier(st, cfg.StateMaxBytes)
			tier = wb.pageTier
			// Every circuit transition is persisted.
			if fetch.Breaker != nil {
				bc := *fetch.Breaker
				bc.OnChange = func(string, web.BreakerState) { wb.persistBreaker() }
				fetch.Breaker = &bc
			}
		}
	}
	// The page tier's writer runs until Close: a failed assembly stops it
	// before returning.
	defer func() {
		if err != nil && wb.pageTier != nil {
			wb.pageTier.Close()
		}
	}()
	wb.stack = web.NewStack(cfg.Fetcher, cfg.Latency, cfg.Clock, tier, fetch)
	wb.restoreBreaker()
	wb.admission = newAdmission(cfg.MaxInFlight, cfg.QueueDepth, wb.metrics, cfg.Clock)

	if wb.Registry, err = d.Registry(); err != nil {
		return nil, err
	}
	// A healed fleet survives restarts: persisted repaired maps are
	// installed as overrides before any query runs, at the version they
	// were healed at — no re-running mapbuilder.Repair at boot.
	wb.restoreMaps()
	if wb.Logical, err = d.Logical(wb.Registry, wb.stack.Fetcher); err != nil {
		return nil, err
	}
	if wb.UR, err = d.UR(); err != nil {
		return nil, err
	}

	// Self-healing: active only when the domain supplies the sample
	// inputs the repair walk needs to exercise site forms.
	if d.SampleInputs != nil {
		hcfg := health.Config{Policy: cfg.Healing, Repair: wb.repairHost, Metrics: wb.metrics}
		if wb.store != nil {
			hcfg.OnChange = func() { wb.persistHealth() }
		}
		wb.health = health.New(hcfg)
		// Restored quarantines resume where they left off: a restarted
		// process does not re-probe a known-dead host or reset the repair
		// attempt budget.
		wb.restoreHealth()
	}
	return wb, nil
}

// SiteHealth exposes the self-healing tracker (nil when the domain has no
// SampleInputs). Tracker methods are nil-safe, so callers may chain
// unconditionally: wb.SiteHealth().Wait() is the quiescent point after
// which every launched background repair has finished.
func (wb *Webbase) SiteHealth() *health.Tracker { return wb.health }

// repairHost is the background remap: for every relation whose navigation
// map starts at the quarantined host, re-check the map against the live
// site, re-anchor drifted edges, verify the repaired map answers end to
// end, and hot-swap it into the registry. Any failure leaves the registry
// untouched and reports the attempt failed (the health tracker bounds how
// often this retries).
func (wb *Webbase) repairHost(host string) error {
	repaired := 0
	for _, ri := range wb.Registry.Relations() {
		m := wb.Registry.CurrentMap(ri.Name)
		if m == nil || m.StartURLVar != "" {
			// No recorded map, or a map entered at a query-supplied URL:
			// nothing to walk from.
			continue
		}
		if web.HostOf(m.StartURL) != host {
			continue
		}
		b := &mapbuilder.Builder{Fetcher: wb.stack.Repair}
		drifts, err := b.CheckMap(m, wb.sampleInputs)
		if err != nil {
			return fmt.Errorf("core: repairing %s: %w", host, err)
		}
		next := m
		if len(drifts) > 0 {
			if next, err = b.Repair(m, wb.sampleInputs); err != nil {
				return fmt.Errorf("core: repairing %s: %w", host, err)
			}
		}
		// Verify end to end before swapping: CheckMap walks navigation but
		// cannot see extraction drift (a renamed table header yields an
		// empty relation, not a navigation failure), so execute the map
		// with the sample inputs and require a non-empty answer.
		expr, err := navmap.Translate(next)
		if err != nil {
			return fmt.Errorf("core: repairing %s: %w", host, err)
		}
		rel, _, err := expr.Execute(wb.stack.Repair, wb.sampleInputs)
		if err != nil {
			return fmt.Errorf("core: repairing %s: verifying %s: %w", host, ri.Name, err)
		}
		if rel.Len() == 0 {
			return fmt.Errorf("core: repairing %s: verifying %s: repaired map returns no tuples for the sample inputs", host, ri.Name)
		}
		if len(drifts) > 0 {
			version, err := wb.Registry.SwapMap(ri.Name, next)
			if err != nil {
				return fmt.Errorf("core: repairing %s: %w", host, err)
			}
			wb.persistMap(ri.Name, version, next)
			repaired++
		}
	}
	// Cached pages of the old design would keep answering queries with the
	// pre-redesign layout; drop them so the swapped-in map sees live pages.
	if repaired > 0 {
		wb.stack.Cache.Clear()
	}
	return nil
}

// Stats exposes the webbase-lifetime fetch statistics: the bill of every
// finished query (a running query's counts arrive when it ends, failed or
// not) plus, live, the fetches no query owns — the repair worker,
// PopulateAll — and the stack-wide PeakInFlight and PerHost.
func (wb *Webbase) Stats() *web.Stats { return wb.stack.Stats }

// Cache exposes the page cache.
func (wb *Webbase) Cache() *web.Cache { return wb.stack.Cache }

// Fetcher returns the fully wrapped fetcher the webbase navigates with.
func (wb *Webbase) Fetcher() web.Fetcher { return wb.stack.Fetcher }

// Breaker exposes the per-host circuit breaker (nil unless
// Config.Fetch.Breaker enabled it).
func (wb *Webbase) Breaker() *web.Breaker { return wb.stack.Breaker }

// Metrics exposes the webbase's metrics registry: counters, gauges and
// histograms aggregated across every query this webbase has run.
func (wb *Webbase) Metrics() *trace.Registry { return wb.metrics }

// now reads the webbase clock (time.Now unless Config.Clock was injected).
func (wb *Webbase) now() time.Time {
	if wb.clock != nil {
		return wb.clock()
	}
	return time.Now()
}

// QueryStats reports what one query cost. Every fetch-side count is read
// off the query's own web.Query, so it is this query's and nobody else's
// however many queries ran beside it (see web.Query for who is billed a
// shared page); PeakInFlight is the one exception.
type QueryStats struct {
	Pages     int64         // pages fetched from sites (cache misses)
	Bytes     int64         // body bytes fetched
	Elapsed   time.Duration // wall-clock time of the evaluation
	Simulated time.Duration // simulated network latency accrued
	CacheHits int64         // pages served to this query from the cache
	// Deduped counts fetches collapsed onto an identical in-flight
	// request by the singleflight middleware during this query.
	Deduped int64
	// Reused counts page visits served a page this query had already
	// loaded twice and kept (web.Query.Load): no fetch, no parse.
	Reused int64
	// LimiterWait is the total time this query's fetches spent queued
	// behind the per-host concurrency cap.
	LimiterWait time.Duration
	// PeakInFlight is the webbase's high-water mark of concurrently
	// executing fetches as of the end of this query: a lifetime maximum
	// over every query's fetches, because host slots are shared.
	PeakInFlight int64
	// Retries counts re-issued fetch attempts (transport failures retried
	// by the retry middleware) during this query.
	Retries int64
	// StaleServed counts pages served from expired cache entries because
	// the network path failed (stale-on-error) during this query.
	StaleServed int64
	// BreakerRejects counts fetches an open circuit breaker rejected
	// without touching the network during this query.
	BreakerRejects int64
	// DegradedObjects counts maximal objects abandoned because their
	// sites were unreachable (see Result.Degradation for the per-site
	// detail).
	DegradedObjects int
	// AdmissionWait is how long the query sat in the admission gate's
	// wait queue before executing. Elapsed deliberately excludes it —
	// Elapsed times execution, AdmissionWait times queueing, and the two
	// never double-count (LimiterWait, by contrast, happens during
	// execution and is part of Elapsed).
	AdmissionWait time.Duration
	// Hedges counts fetches backed by a second attempt because the first
	// had not answered within Config.Fetch.HedgeAfter; HedgeWins counts those
	// answered by the second attempt.
	Hedges    int64
	HedgeWins int64
	// BulkheadSheds counts fetches shed by a saturated host bulkhead
	// during this query.
	BulkheadSheds int64
	// BudgetSheds counts fetches refused because their object's deadline
	// budget was exhausted during this query.
	BudgetSheds int64
	// HedgesSuppressed counts fetches that were eligible to hedge but
	// waited for their primary attempt because the query's hedge budget
	// was spent.
	HedgesSuppressed int64
	// DriftDetected counts maximal objects this query lost to site drift
	// (sites answering, but no longer matching their navigation maps) —
	// the observations that feed the self-healing tracker.
	DriftDetected int
	// PrunedFetches counts access attempts skipped by runtime relevance
	// pruning during this query — handle invocations, dependent-join
	// feeds and whole maximal objects that provably could not contribute
	// answer tuples. PrunedByReason breaks the count down by decision
	// rule (prune.ReasonUnsatWhere, prune.ReasonLimit). Zero/nil unless
	// Config.Prune is on.
	PrunedFetches  int64
	PrunedByReason map[string]int64
}

// String renders the stats line the experiment harness prints.
func (qs *QueryStats) String() string {
	return fmt.Sprintf("pages=%d bytes=%d elapsed=%v simulated-net=%v cache-hits=%d deduped=%d reused=%d retries=%d stale=%d breaker-rejects=%d degraded-objects=%d peak-inflight=%d limiter-wait=%v admission-wait=%v hedges=%d hedge-wins=%d hedges-suppressed=%d bulkhead-shed=%d budget-shed=%d drift-detected=%d pruned=%d",
		qs.Pages, qs.Bytes, qs.Elapsed, qs.Simulated, qs.CacheHits, qs.Deduped, qs.Reused, qs.Retries, qs.StaleServed, qs.BreakerRejects, qs.DegradedObjects, qs.PeakInFlight, qs.LimiterWait, qs.AdmissionWait, qs.Hedges, qs.HedgeWins, qs.HedgesSuppressed, qs.BulkheadSheds, qs.BudgetSheds, qs.DriftDetected, qs.PrunedFetches)
}

// Query evaluates a universal relation query end to end. Evaluation runs
// on up to Config.Workers goroutines; the answer is identical tuple for
// tuple to sequential (Workers=1) evaluation.
func (wb *Webbase) Query(q ur.Query) (*ur.Result, *QueryStats, error) {
	return wb.QueryContext(context.Background(), q)
}

// QueryContext is Query with cancellation: once ctx is done, evaluation
// stops issuing page fetches (in-flight fetches complete), every layer
// unwinds, and ctx.Err() is returned. Use it to put deadlines on queries
// over slow or hung sites.
func (wb *Webbase) QueryContext(ctx context.Context, q ur.Query) (*ur.Result, *QueryStats, error) {
	res, qs, _, err := wb.query(ctx, q, nil, false)
	return res, qs, err
}

// QueryTraced is QueryContext with execution tracing: the returned trace
// holds one span per maximal object, algebra operator, dependent-join
// invocation, handle execution and page fetch, annotated with actual
// cardinalities and costs. The trace is returned even when the query
// fails — a failed query's accesses are exactly what one wants to see.
// Pass the trace to ExplainAnalyze for the rendered plan, or Export it as
// JSON. Tracing adds spans but never changes the answer: the result is
// tuple-for-tuple identical to QueryContext's.
//
// A query the admission gate sheds returns a nil trace: it never
// executed, so there is nothing to trace. Admission happens before the
// root span starts, so queue time never inflates the trace's timings
// (it is reported separately in QueryStats.AdmissionWait).
func (wb *Webbase) QueryTraced(ctx context.Context, q ur.Query) (*ur.Result, *QueryStats, *trace.Trace, error) {
	return wb.query(ctx, q, nil, true)
}

// QueryStream is QueryContext with incremental answer delivery: as each
// maximal object completes, sink receives its finished contribution
// (new unique tuples, a degradation failure, or a binding skip) in plan
// order, so a caller can ship partial answers while later objects are
// still navigating their sites. The concatenation of delivered tuples
// is byte-identical to the Result.Relation the call returns, whatever
// Config.Workers is. Queries with ORDER BY or LIMIT deliver once,
// buffered, after sort and truncation (see ur.ObjectDelivery.Buffered).
func (wb *Webbase) QueryStream(ctx context.Context, q ur.Query, sink ur.ObjectSink) (*ur.Result, *QueryStats, error) {
	res, qs, _, err := wb.query(ctx, q, sink, false)
	return res, qs, err
}

// QueryStreamTraced is QueryStream with execution tracing (see
// QueryTraced). Like QueryTraced, a query the admission gate sheds
// returns a nil trace; the sink never fires for a shed query.
func (wb *Webbase) QueryStreamTraced(ctx context.Context, q ur.Query, sink ur.ObjectSink) (*ur.Result, *QueryStats, *trace.Trace, error) {
	return wb.query(ctx, q, sink, true)
}

// query is the one body behind every Query* entry point: admission, the
// optional trace, execution. The execution clock starts after admission,
// so queue time appears only in AdmissionWait, never in Elapsed or in
// span durations. A non-nil sink receives per-object deliveries as
// evaluation streams (see QueryStream).
func (wb *Webbase) query(ctx context.Context, q ur.Query, sink ur.ObjectSink, traced bool) (*ur.Result, *QueryStats, *trace.Trace, error) {
	wait, err := wb.admission.acquire(ctx, queryClassFrom(ctx))
	if err != nil {
		return nil, nil, nil, err
	}
	defer wb.admission.release()
	var tr *trace.Trace
	if traced {
		tr = trace.New(q.String(), wb.clock)
		ctx = trace.ContextWith(ctx, tr.Root)
	}
	res, qs, err := wb.runAdmitted(ctx, q, wait, sink)
	if err != nil {
		if traced {
			tr.Root.EndErr(err)
		}
		return nil, nil, tr, err
	}
	if traced {
		tr.Root.Set("tuples", int64(res.Relation.Len()))
		tr.Root.End()
	}
	return res, qs, tr, nil
}

// runAdmitted evaluates an already-admitted query on a bounded worker
// pool and closes its bill: whatever the outcome, what the query's own
// fetches cost is read off its web.Query, folded once into the lifetime
// Stats and observed in the metrics registry.
func (wb *Webbase) runAdmitted(ctx context.Context, q ur.Query, admissionWait time.Duration, sink ur.ObjectSink) (*ur.Result, *QueryStats, error) {
	start := wb.now()
	ctx = algebra.WithPool(ctx, algebra.NewPool(wb.workers))
	// Quarantine snapshot: the set of drift-confirmed hosts is read once,
	// here, so a health transition mid-query cannot change which sites a
	// running query consults (outcomes stay schedule-independent).
	ctx = vps.ContextWithQuarantine(ctx, wb.health.Quarantined())
	// Access-relevance pruning: compile the query's WHERE clause once;
	// every layer below consults the state through the context (vps skips
	// irrelevant handle invocations pre-fetch, algebra skips doomed
	// dependent-join feeds, ur stops launching objects once LIMIT is
	// satisfied).
	var pst *prune.State
	if wb.prune {
		pst = ur.NewPruneState(q)
		ctx = prune.ContextWith(ctx, pst)
	}
	// The fetch stack's per-query state and bill: the outage memo replays
	// terminal site failures within this query, the retry and hedge
	// budgets are spent against it, and the UR layer mints one deadline
	// budget per maximal object from it. Attached last, so it is the first
	// value a fetch's context lookup meets.
	wq := wb.stack.NewQuery()
	res, err := wb.UR.EvalStream(web.WithQuery(ctx, wq), q, wb.Logical, sink, wb.strict)
	wb.stack.Stats.Add(&wq.Stats)
	qs := &QueryStats{
		Pages:            wq.Stats.Pages(),
		Bytes:            wq.Stats.Bytes(),
		Simulated:        wq.Stats.SimulatedLatency(),
		CacheHits:        wq.Stats.CacheHits(),
		Deduped:          wq.Stats.Deduped(),
		Reused:           wq.Stats.Reused(),
		LimiterWait:      wq.Stats.LimiterWait(),
		PeakInFlight:     wb.stack.Stats.PeakInFlight(),
		Retries:          wq.Stats.Retries(),
		StaleServed:      wq.Stats.StaleServed(),
		BreakerRejects:   wq.Stats.BreakerRejects(),
		AdmissionWait:    admissionWait,
		Hedges:           wq.Stats.Hedges(),
		HedgeWins:        wq.Stats.HedgeWins(),
		BulkheadSheds:    wq.Stats.BulkheadSheds(),
		BudgetSheds:      wq.Stats.BudgetSheds(),
		HedgesSuppressed: wq.Stats.HedgesSuppressed(),
	}
	if pst != nil {
		qs.PrunedFetches = pst.Total()
		qs.PrunedByReason = pst.Counts()
	}
	if err != nil {
		wb.observe(qs, true)
		return nil, nil, err
	}
	qs.Elapsed = wb.now().Sub(start)
	// Degradation is reported whenever the answer differs from (or was
	// rescued relative to) the fully-healthy one: objects lost to
	// outages, or pages served stale.
	if res.Degradation == nil && qs.StaleServed > 0 {
		res.Degradation = &ur.Degradation{}
	}
	if res.Degradation != nil {
		res.Degradation.StaleServed = qs.StaleServed
		qs.DegradedObjects = len(res.Degradation.Unavailable)
		// Self-healing feedback: each drift-degraded object is one
		// observation against its host; enough of them quarantine the site
		// and launch its background remap. Reported after evaluation so
		// this query's own outcome was fixed before the tracker moved.
		for _, f := range res.Degradation.Unavailable {
			if f.Kind == ur.FailureDrift {
				qs.DriftDetected++
				wb.health.ReportDrift(f.Host)
			}
		}
	}
	wb.observe(qs, false)
	return res, qs, nil
}

// observe folds one query's bill into the webbase-lifetime metrics. A
// failed query is counted as failed and still pays for what it fetched;
// the per-answer metrics (degradation, histograms) describe answered
// queries only.
func (wb *Webbase) observe(qs *QueryStats, failed bool) {
	m := wb.metrics
	if failed {
		m.Counter("queries_failed_total").Add(1)
	} else {
		m.Counter("queries_total").Add(1)
	}
	m.Counter("pages_fetched_total").Add(qs.Pages)
	m.Counter("bytes_fetched_total").Add(qs.Bytes)
	m.Counter("cache_hits_total").Add(qs.CacheHits)
	m.Counter("deduped_total").Add(qs.Deduped)
	m.Counter("pages_reused_total").Add(qs.Reused)
	m.Counter("retries_total").Add(qs.Retries)
	m.Counter("stale_served_total").Add(qs.StaleServed)
	m.Counter("breaker_rejects_total").Add(qs.BreakerRejects)
	m.Counter("fetch_hedges_total").Add(qs.Hedges)
	m.Counter("hedge_wins_total").Add(qs.HedgeWins)
	m.Counter("bulkhead_shed_total").Add(qs.BulkheadSheds)
	m.Counter("budget_shed_total").Add(qs.BudgetSheds)
	m.Counter("hedges_suppressed_total").Add(qs.HedgesSuppressed)
	m.Counter("site_drift_detected_total").Add(int64(qs.DriftDetected))
	if wb.prune {
		// Registered only on pruning-enabled webbases: a pruning-off
		// /metrics page has no pruning counters.
		m.Counter("fetches_pruned_total").Add(qs.PrunedFetches)
		for r, n := range qs.PrunedByReason {
			m.Counter(`fetches_pruned_total{reason="` + r + `"}`).Add(n)
		}
	}
	m.Gauge("peak_inflight").SetMax(qs.PeakInFlight)
	if failed {
		return
	}
	if qs.DegradedObjects > 0 {
		m.Counter("queries_degraded_total").Add(1)
		m.Counter("objects_unavailable_total").Add(int64(qs.DegradedObjects))
	}
	m.Histogram("query_elapsed_seconds", 0.001, 0.01, 0.1, 1, 10).Observe(qs.Elapsed.Seconds())
	m.Histogram("query_pages", 1, 5, 10, 50, 100, 500).Observe(float64(qs.Pages))
	if qs.AdmissionWait > 0 {
		m.Histogram("admission_wait_seconds", 0.001, 0.01, 0.1, 1, 10).Observe(qs.AdmissionWait.Seconds())
	}
}

// QueryString parses and evaluates the CLI query syntax
// (SELECT ... WHERE ...).
func (wb *Webbase) QueryString(text string) (*ur.Result, *QueryStats, error) {
	return wb.QueryStringContext(context.Background(), text)
}

// QueryStringContext is QueryString with cancellation.
func (wb *Webbase) QueryStringContext(ctx context.Context, text string) (*ur.Result, *QueryStats, error) {
	q, err := ur.ParseQuery(wb.UR, text)
	if err != nil {
		return nil, nil, err
	}
	return wb.QueryContext(ctx, q)
}

// SiteResult is the outcome of populating one VPS relation during a
// multi-site sweep.
type SiteResult struct {
	Relation string
	Rel      *relation.Relation
	Err      error
}

// PopulateAll populates the named VPS relations with the same inputs,
// running up to Workers sites concurrently — the parallelization Section 7
// finds "crucial for obtaining acceptable response times". Results arrive
// keyed and sorted by relation name; per-site errors are reported in the
// results rather than aborting the sweep.
//
// Workers write into indexed slots and the final ordering is a stable
// sort, so the output sequence is deterministic even when the input lists
// a relation more than once — the same slot-then-deterministic-merge
// pattern the parallel union evaluator uses.
func (wb *Webbase) PopulateAll(relations []string, inputs map[string]relation.Value) []SiteResult {
	return wb.PopulateAllContext(context.Background(), relations, inputs)
}

// PopulateAllContext is PopulateAll with cancellation: sites not yet
// started when ctx is done report ctx.Err() in their SiteResult, and
// running navigations abort at their next page load.
func (wb *Webbase) PopulateAllContext(ctx context.Context, relations []string, inputs map[string]relation.Value) []SiteResult {
	results := make([]SiteResult, len(relations))
	sweepCtx := algebra.WithPool(ctx, algebra.NewPool(wb.workers))
	errs := algebra.ForEach(sweepCtx, len(relations), false, func(i int) error {
		name := relations[i]
		rel, _, err := wb.Registry.PopulateContext(ctx, wb.stack.Fetcher, name, inputs)
		results[i] = SiteResult{Relation: name, Rel: rel, Err: err}
		return nil
	})
	for i, err := range errs {
		if err != nil { // slot skipped because ctx was already done
			results[i] = SiteResult{Relation: relations[i], Err: err}
		}
	}
	sortSiteResults(results)
	return results
}

// PopulateSequential is the sequential baseline of PopulateAll, used by
// the parallelization experiment.
func (wb *Webbase) PopulateSequential(relations []string, inputs map[string]relation.Value) []SiteResult {
	results := make([]SiteResult, len(relations))
	for i, name := range relations {
		rel, _, err := wb.Registry.Populate(wb.stack.Fetcher, name, inputs)
		results[i] = SiteResult{Relation: name, Rel: rel, Err: err}
	}
	sortSiteResults(results)
	return results
}

// sortSiteResults orders sweep results by relation name, stably: inputs
// naming the same relation twice keep their submission order instead of
// landing in whichever order the unstable sort's pivoting produced.
func sortSiteResults(results []SiteResult) {
	sort.SliceStable(results, func(i, j int) bool { return results[i].Relation < results[j].Relation })
}
