// Package webbase is a database system for querying dynamic Web content —
// a reproduction of Davulcu, Freire, Kifer & Ramakrishnan, "A Layered
// Architecture for Querying Dynamic Web Content" (SIGMOD 1999).
//
// A webbase stacks three layers over the raw Web (Figure 1 of the paper):
//
//   - the virtual physical schema (navigation independence): relations
//     populated by executing navigation expressions — serial-Horn
//     Transaction F-logic programs that follow links, fill out forms and
//     extract tuples from data pages;
//   - the logical layer (site independence): relational-algebra views over
//     the VPS, evaluated with binding propagation and dependent joins so
//     that form-mandatory attributes are always supplied;
//   - the external schema: a structured universal relation — the user
//     names output attributes and conditions; concept hierarchies and
//     compatibility rules replace the classical UR's lossless-join
//     semantics.
//
// Quick start:
//
//	world := webbase.NewSimulatedWorld()          // the built-in 12-site car Web
//	wb, err := webbase.New(webbase.Config{Fetcher: world.Server})
//	res, stats, err := wb.QueryString(
//	    "SELECT Make, Model, Year, Price, BBPrice " +
//	    "WHERE Make = 'jaguar' AND Year >= 1993 AND Safety = 'good' " +
//	    "AND Condition = 'good' AND Price < BBPrice")
//	fmt.Println(res.Relation, stats)
//
// QueryString is the shorthand without a deadline. Every operation that
// can fetch a page takes a context first, so a caller bounds a query with
// one:
//
//	q, err := webbase.ParseQuery(wb, "SELECT Make, Price WHERE Make = 'ford'")
//	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
//	defer cancel()
//	res, stats, err := wb.Query(ctx, q)
//
// Every query can be observed as well as answered: System.QueryTraced
// returns a span tree mirroring the layered evaluation (query → maximal
// object → operator → handle → page fetch), System.ExplainAnalyze renders
// the plan annotated with actual per-operator cardinalities and costs, and
// System.Metrics aggregates counters/gauges/histograms across queries.
//
// Admission control — bounding concurrently executing queries and
// shedding the excess by tenant class — belongs to the query service
// (internal/server, cmd/webbased), not to the library: a library query
// runs as soon as it is called, and its caller bounds its own
// concurrency.
//
// The package re-exports the types needed to use the system; the
// implementation lives under internal/ (relation, htmlkit, web, sites,
// flogic, tlogic, navcalc, navmap, mapbuilder, vps, algebra, logical, ur,
// trace, core).
package webbase

import (
	"time"

	"webbase/internal/apartments"
	"webbase/internal/core"
	"webbase/internal/health"
	"webbase/internal/prune"
	"webbase/internal/relation"
	"webbase/internal/sites"
	"webbase/internal/store"
	"webbase/internal/trace"
	"webbase/internal/ur"
	"webbase/internal/web"
)

// Core system types.
type (
	// System is an assembled three-layer webbase.
	System = core.Webbase
	// Config controls webbase assembly.
	Config = core.Config
	// FetchPolicy is the fetch stack's knobs (Config.Fetch): retries,
	// the per-host bulkhead, hedging, the breaker, deadline budgets and
	// cache freshness.
	FetchPolicy = web.Policy
	// HealingPolicy is the self-healing knobs (Config.Healing): when drift
	// quarantines a site and how its repair is retried.
	HealingPolicy = health.Policy
	// QueryStats reports what one query cost.
	QueryStats = core.QueryStats

	// Query is a universal-relation query: outputs plus conditions.
	Query = ur.Query
	// Result is a query's answer with its plan and skipped objects.
	Result = ur.Result

	// Relation is an in-memory relation (schema + tuples).
	Relation = relation.Relation
	// Schema is an ordered attribute list.
	Schema = relation.Schema
	// Tuple is one row.
	Tuple = relation.Tuple
	// Value is a dynamically typed relational value.
	Value = relation.Value

	// Trace is one query's execution-span tree (from System.QueryTraced).
	Trace = trace.Trace
	// MetricsRegistry aggregates counters, gauges and histograms across
	// queries (from System.Metrics).
	MetricsRegistry = trace.Registry

	// Degradation reports the maximal objects a query lost to site
	// outages and the pages it served stale (see Result.Degradation).
	Degradation = ur.Degradation
	// SiteFailure attributes one abandoned maximal object to the failing
	// site.
	SiteFailure = ur.SiteFailure

	// ObjectDelivery is one maximal object's finished contribution to a
	// streaming answer (System.QueryStream).
	ObjectDelivery = ur.ObjectDelivery
	// ObjectSink receives streaming deliveries in plan order.
	ObjectSink = ur.ObjectSink

	// Fetcher retrieves Web pages; implement it to point the webbase at
	// your own Web.
	Fetcher = web.Fetcher
	// LatencyModel simulates network latency deterministically.
	LatencyModel = web.LatencyModel
	// Flaky injects deterministic fetch failures — the chaos-testing
	// fetcher wrapper (and the CLI's -failevery).
	Flaky = web.Flaky
	// Redesign rewrites a host's pages on demand — the site-redesign
	// test double driving the self-healing subsystem.
	Redesign = web.Redesign
	// Rewrite is one textual substitution a Redesign applies.
	Rewrite = web.Rewrite
	// World is the built-in simulated car-shopping Web with its
	// ground-truth datasets.
	World = sites.World
)

// New assembles the standard used-car webbase over cfg.Fetcher.
func New(cfg Config) (*System, error) { return core.New(cfg) }

// NewSimulatedWorld builds the deterministic 12-site simulated Web the
// paper's evaluation is reproduced against.
func NewSimulatedWorld() *World { return sites.BuildWorld() }

// ApartmentWorld is the second application domain's simulated Web
// (apartment hunting), demonstrating the architecture's domain
// independence.
type ApartmentWorld = apartments.World

// NewApartmentWorld builds the apartment-domain simulated Web.
func NewApartmentWorld() *ApartmentWorld { return apartments.BuildWorld() }

// NewApartments assembles a webbase for the apartment-hunting domain.
func NewApartments(cfg Config) (*System, error) {
	return core.NewDomain(cfg, core.Domain{
		Registry: apartments.Registry,
		Logical:  apartments.Logical,
		UR:       apartments.UR,
	})
}

// ParseQuery parses the SELECT ... WHERE ... query syntax against a
// system's universal relation.
func ParseQuery(sys *System, text string) (Query, error) {
	return ur.ParseQuery(sys.UR, text)
}

// ErrBadQuery classifies malformed query text from ParseQuery: every
// syntax error wraps it (errors.Is), including rejected ORDER BY shapes
// such as trailing commas and duplicate sort keys.
var ErrBadQuery = ur.ErrBadQuery

// Error taxonomy helpers (see internal/web's taxonomy): classify a
// query or fetch failure with errors.Is semantics.
var (
	// IsOutage reports a terminal site failure (retries exhausted,
	// breaker open, host down).
	IsOutage = web.IsOutage
	// IsSiteAnswer reports that the site answered, unsuccessfully
	// (e.g. a non-success status).
	IsSiteAnswer = web.IsSiteAnswer
	// FailingHost names the host a failure is attributed to ("" when
	// unattributed).
	FailingHost = web.FailingHost
	// IsBudgetExhausted reports that a query (or one of its objects) was
	// degraded because its Config.Fetch.Deadline budget ran out.
	IsBudgetExhausted = web.IsBudgetExhausted
	// IsDrift reports a site that answered but whose pages no longer
	// match its navigation map (a redesign; see Config.Healing and
	// System.SiteHealth).
	IsDrift = web.IsDrift
)

// Durable state tier (Config.StateDir). The store sits strictly below the
// in-memory stacks as a second cache tier — never a source of truth — so
// answers are byte-identical with it on or off. What survives a restart:
// warmed pages (honoring Config.Fetch.CacheMaxAge and AllowStale),
// repaired navigation maps, and breaker/health verdicts (a restarted
// process does not re-probe a known-dead host or reset its repair
// budget). A missing, truncated, bit-flipped or version-skewed state file
// falls back to cold state, counted in store_corrupt_total by tier; it
// never fails a query. System.FlushState forces dirty state to disk; System.Close is
// the graceful shutdown (flush + stop background writers).
var (
	// ErrStoreCorrupt classifies a state file that failed an integrity
	// check. Match with errors.Is; corrupt state is self-healing (cold
	// fallback), so this surfaces only through store-level APIs, never
	// from queries.
	ErrStoreCorrupt = store.ErrCorrupt
)

// Overload-protection sentinels. Match with errors.Is.
var (
	// ErrHostSaturated is the cause recorded when a per-host bulkhead
	// (Config.Fetch.HostLimit / HostQueue) sheds a fetch.
	ErrHostSaturated = web.ErrHostSaturated
	// ErrBudgetExhausted is the cause recorded when a deadline budget
	// (Config.Fetch.Deadline) refuses to start more work.
	ErrBudgetExhausted = web.ErrBudgetExhausted
)

// Access-relevance pruning reasons (Config.Prune). They key
// QueryStats.PrunedByReason and label the fetches_pruned_total metric,
// and appear as pruned-reason attributes on pruned=1 spans in traces and
// EXPLAIN ANALYZE output.
const (
	// PruneUnsatWhere: the access's already-bound attributes violate the
	// query's WHERE clause, so it cannot contribute an answer tuple; the
	// fetch was skipped before any page was requested.
	PruneUnsatWhere = prune.ReasonUnsatWhere
	// PruneLimit: the query's LIMIT was already satisfied by maximal
	// objects earlier in plan order, so the object was never launched.
	PruneLimit = prune.ReasonLimit
)

// Value constructors.
var (
	// String wraps a string value.
	String = relation.String
	// Int wraps an integer value.
	Int = relation.Int
	// Float wraps a float value.
	Float = relation.Float
)

// DefaultLatency is the latency model the experiment harness uses: a few
// milliseconds per request plus per-KB transfer time and deterministic
// per-URL jitter — 1998 dial-up shrunk by three orders of magnitude so the
// suite stays fast while preserving the elapsed ≫ cpu shape.
var DefaultLatency = web.LatencyModel{
	PerRequest: 4 * time.Millisecond,
	PerKB:      1 * time.Millisecond,
	Jitter:     3 * time.Millisecond,
}
