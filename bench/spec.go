package main

// The fixed names of the benchmark: workloads, end-to-end metrics with
// their regression bounds, and per-layer metrics. BENCHMARK.json at the
// repo root mirrors these tables (bench_test.go checks they agree); every
// later performance claim in this repo quotes them, so they do not change.

// metricSpec names one metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen before a change is a
// regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system sees, per workload. Every clock
// is host-normalised (see yardstick in measure.go).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.15},
	{"query_p50_ms", "ms", "lower", 0.15},
	{"query_p90_ms", "ms", "lower", 0.20},
	{"first_delivery_p50_ms", "ms", "lower", 0.15},
	{"cpu_ms_per_query", "ms", "lower", 0.15},
	{"allocs_per_query", "count", "lower", 0.02},
	{"alloc_kb_per_query", "KiB", "lower", 0.02},
	{"fetches_per_query", "count", "lower", 0.02},
	{"heap_live_mb", "MiB", "lower", 0.10},
}

// perLayer lists the traced cost model, all per query unless the name
// says otherwise. A metric that does not apply to a workload (server.* on
// a library workload, sites.* on a warm one) reads 0 there.
var perLayer = []metricSpec{
	{Name: "sites.render_ms", Unit: "ms", Better: "lower"},
	{Name: "sites.pages", Unit: "count", Better: "lower"},
	{Name: "sites.kb", Unit: "KiB", Better: "lower"},
	{Name: "web.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "web.network_pages", Unit: "count", Better: "lower"},
	{Name: "web.deduped", Unit: "count", Better: "higher"},
	{Name: "web.fetch_self_ms", Unit: "ms", Better: "lower"},
	{Name: "htmlkit.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "htmlkit.parse_mb_per_s", Unit: "MiB/s", Better: "higher"},
	{Name: "htmlkit.parse_allocs_per_page", Unit: "count", Better: "lower"},
	{Name: "htmlkit.pages_parsed", Unit: "count", Better: "lower"},
	{Name: "navcalc.objects_ms", Unit: "ms", Better: "lower"},
	{Name: "navcalc.objects_allocs_per_page", Unit: "count", Better: "lower"},
	{Name: "navcalc.exec_ms", Unit: "ms", Better: "lower"},
	{Name: "vps.handle_calls", Unit: "count", Better: "lower"},
	{Name: "vps.handle_self_ms", Unit: "ms", Better: "lower"},
	{Name: "vps.tuples_out", Unit: "count", Better: "lower"},
	{Name: "algebra.op_self_ms", Unit: "ms", Better: "lower"},
	{Name: "algebra.pool_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "algebra.invocations", Unit: "count", Better: "lower"},
	{Name: "algebra.rows_in_per_row_out", Unit: "ratio", Better: "lower"},
	{Name: "ur.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "ur.objects", Unit: "count", Better: "lower"},
	{Name: "ur.object_self_ms", Unit: "ms", Better: "lower"},
	{Name: "ur.gate_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "core.query_self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.admission_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "core.unattributed_ms", Unit: "ms", Better: "lower"},
	{Name: "core.query_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.handler_self_ms", Unit: "ms", Better: "lower"},
	{Name: "server.wire_kb", Unit: "KiB", Better: "lower"},
	{Name: "server.events", Unit: "count", Better: "lower"},
	{Name: "server.resume_skipped_events", Unit: "count", Better: "lower"},
	{Name: "server.reexec_ms", Unit: "ms", Better: "lower"},
	{Name: "client.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "client.attempts", Unit: "count", Better: "lower"},
	{Name: "client.resumes", Unit: "count", Better: "lower"},
	{Name: "http.transport_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "host.yardstick_ms", Unit: "ms", Better: "lower"},
	{Name: "host.rss_peak_mb", Unit: "MiB", Better: "lower"},
}

// workloadSpec fixes one workload's shape. Operation counts are constants:
// RefPasses whole deck passes per round at refSeconds, scaled linearly by
// -seconds and never by a clock, so two runs of one commit do the same
// work.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Joins selects the T2+T3 deck; false is the T1 lookup deck.
	Joins bool `json:"-"`
	// Cold clears the page cache before every query.
	Cold bool `json:"-"`
	// Served runs queries through internal/server over loopback TCP with
	// client.Client; false calls System.QueryStream in-process.
	Served bool `json:"-"`
	// Sever cuts every stream once, after the seq=1 event, so the client
	// must resume.
	Sever bool `json:"-"`
	// Clients is the closed loop's width.
	Clients int `json:"-"`
	// RefPasses is deck passes per round when -seconds is refSeconds,
	// sized on the 2-core reference box so the measured phase fills it.
	RefPasses int `json:"-"`
}

const (
	// refSeconds is the -seconds value RefPasses was sized for; it is
	// BENCHMARK.json's run_seconds.
	refSeconds = 12
	// rounds is how many equal rounds a measured phase has. Timed metrics
	// report the median round, which shrugs off a noisy neighbour's burst
	// of up to two rounds.
	rounds = 5
	// traceDivisor shrinks the operation count of each -trace phase.
	traceDivisor = 4
	// workers is Config.Workers and the child's GOMAXPROCS.
	workers = 2
	// setupRuns is how many fresh processes time set-up; setup_s is their
	// median.
	setupRuns = 3
)

var workloads = []workloadSpec{
	{Name: "nav_cold", Cold: true, Clients: 1, RefPasses: 11,
		Why: "T1 lookups with the page cache cleared before each: every page takes the full web miss path and sites rendering, so the fetch stack does most of the work"},
	{Name: "nav_warm", Clients: 1, RefPasses: 25,
		Why: "the same T1 deck on a warm cache: every access is a hit, so htmlkit parsing and navcalc extraction dominate and web does almost nothing"},
	{Name: "join_warm", Joins: true, Clients: 1, RefPasses: 4,
		Why: "T2 dependent joins into the blue book and the T3 headline query, warm: algebra invocations, relation dedup and the plan-order gate carry their largest share"},
	{Name: "serve_stream", Served: true, Clients: 2, RefPasses: 21,
		Why: "the T1 deck through internal/server on loopback TCP with the gzip client, two concurrent clients: HTTP, NDJSON encode, gzip flush and client decode are a large share of a cheap query"},
	{Name: "serve_resume", Served: true, Sever: true, Clients: 2, RefPasses: 10,
		Why: "serve_stream with every stream cut once after its first delivery: the client resumes and the server replays with suppression, the cost of a resumed stream against a fresh one"},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// passesPerRound scales a workload's reference count to -seconds.
func (w workloadSpec) passesPerRound(seconds int, trace bool) int {
	p := (w.RefPasses*seconds + refSeconds/2) / refSeconds
	if trace {
		p /= traceDivisor
	}
	if p < 1 {
		p = 1
	}
	return p
}
