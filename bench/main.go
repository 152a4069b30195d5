// Command bench is the repo's one benchmark: five closed-loop,
// fixed-operation-count workloads over the whole stack, eleven end-to-end
// metrics per workload, and a traced second pass that prices every layer.
// See README.md in this directory.
//
//	go run ./bench                      every workload, end-to-end metrics
//	go run ./bench -trace               every workload, per-layer metrics
//	go run ./bench -workload nav_warm -seed 7
//	go run ./bench -selfcheck           two interleaved sets of five runs
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics (one such line per workload when
// several run).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// processStart approximates the child's start when no spawn stamp is
// passed (in-process use by the tests).
var processStart = time.Now()

// spawnEnv carries the parent's clock reading just before it started the
// child, so setup_s covers exec and runtime start-up too.
const spawnEnv = "WEBBASE_BENCH_SPAWN_NS"

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	selfcheck bool
	out       string
	child     bool
	setupOnly bool
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload: "+strings.Join(workloadNames(), ", ")+" (default: all)")
	fs.Int64Var(&o.seed, "seed", 1, "deck shuffle seed")
	fs.IntVar(&o.seconds, "seconds", refSeconds, "size of the measured phase: operation counts scale with it, nothing is cut by a clock")
	fs.BoolVar(&o.trace, "trace", false, "run the shorter traced pass and print the per-layer metrics")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run two interleaved sets of five full runs and compare them against the bounds")
	fs.StringVar(&o.out, "out", "", "directory for the span file (default: the system temp dir)")
	fs.BoolVar(&o.child, "child", false, "internal: run one workload in this process and print its report")
	fs.BoolVar(&o.setupOnly, "setuponly", false, "internal: time set-up and exit")
	if err := fs.Parse(joinTraceValue(args)); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("-seconds must be at least 1")
	}
	if o.workload != "" {
		if _, ok := findWorkload(o.workload); !ok {
			return o, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
		}
	}
	if o.out == "" {
		o.out = os.TempDir()
	}
	return o, nil
}

// joinTraceValue lets -trace be written both as a switch and with a
// separate value ("--trace 1"), which the flag package does not allow for
// booleans.
func joinTraceValue(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.child {
		return runChild(o)
	}
	printHeader(o)
	if o.selfcheck {
		return selfcheck(o)
	}
	ok := true
	for _, w := range selected(o) {
		rep, err := measure(w, o)
		if err != nil {
			return err
		}
		printReport(os.Stdout, rep)
		ok = ok && rep.Failed == 0
	}
	if !ok {
		return fmt.Errorf("some operations failed")
	}
	return nil
}

func selected(o options) []workloadSpec {
	if w, ok := findWorkload(o.workload); ok {
		return []workloadSpec{w}
	}
	return workloads
}

// report is what one run of one workload produced.
type report struct {
	Workload       string             `json:"workload"`
	Seed           int64              `json:"seed"`
	Trace          bool               `json:"trace"`
	Loop           string             `json:"loop"`
	Clients        int                `json:"clients"`
	Rounds         int                `json:"rounds"`
	PassesPerRound int                `json:"passes_per_round"`
	Deck           int                `json:"deck"`
	Attempted      int                `json:"attempted"`
	Failed         int                `json:"failed"`
	Failures       []string           `json:"failures,omitempty"`
	Metrics        map[string]float64 `json:"metrics"` // clocks host-normalised
	Raw            map[string]float64 `json:"raw"`     // setup_s and queries_per_s as the wall clock had them
	PerRound       []roundStats       `json:"per_round,omitempty"`
	SetupSamples   []float64          `json:"setup_samples,omitempty"`
	YardstickMS    float64            `json:"yardstick_ms"` // median round's yardstick
	GCs            uint32             `json:"gc_cycles"`
	RSSPeakMB      float64            `json:"rss_peak_mb"` // VmHWM of the child; informational, see README
	MinSelfMS      float64            `json:"min_self_ms"` // most negative span self time; 0 when none
	SpanFile       string             `json:"span_file,omitempty"`
}

// runConfig is one in-process run; the child builds it from its flags and
// the tests build it directly with tiny counts.
type runConfig struct {
	spec      workloadSpec
	seed      int64
	rounds    int // rounds per measured phase; always the constant outside tests
	passes    int // whole deck passes per round
	yards     int // yardstick samples per round and for set-up; always the constants outside tests
	deckLimit int // tests only: keep this many queries of the deck; 0 keeps all
	trace     bool
	setupOnly bool
	out       string
	started   time.Time
}

func runChild(o options) error {
	spec, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("-child needs -workload")
	}
	runtime.GOMAXPROCS(workers)
	cfg := runConfig{spec: spec, seed: o.seed, rounds: rounds, yards: yardsPerRound, passes: spec.passesPerRound(o.seconds, o.trace),
		trace: o.trace, setupOnly: o.setupOnly, out: o.out, started: processStart}
	if ns, err := strconv.ParseInt(os.Getenv(spawnEnv), 10, 64); err == nil {
		cfg.started = time.Unix(0, ns)
	}
	rep, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// runWorkload sets the workload up, runs its measured phase (or, traced,
// untraced and traced rounds of equal size in alternation) and reports.
func runWorkload(cfg runConfig) (*report, error) {
	e, err := newEnv(cfg.spec, cfg.seed, cfg.trace, cfg.deckLimit)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", cfg.spec.Name, err)
	}
	defer e.close()
	setup := time.Since(cfg.started).Seconds()
	rep := &report{Workload: cfg.spec.Name, Seed: cfg.seed, Trace: cfg.trace, Loop: "closed_loop",
		Clients: cfg.spec.Clients, Rounds: cfg.rounds, PassesPerRound: cfg.passes, Deck: len(e.deck),
		Metrics: map[string]float64{"setup_s": setup * hostScale(yardstickMedian(min(cfg.yards, setupYards)))},
		Raw:     map[string]float64{"setup_s": setup}}
	if cfg.setupOnly {
		return rep, nil
	}

	ctx := context.Background()
	if !cfg.trace {
		p := e.runPhase(ctx, cfg.rounds, cfg.passes, cfg.yards)
		mr, q := p.medianRound(), float64(p.Queries)
		rep.Attempted, rep.Failed, rep.Failures, rep.GCs = p.Queries, p.Failed, p.Failures, p.GCs
		rep.PerRound, rep.YardstickMS = p.Rounds, mr.YardstickMS
		rep.Raw["queries_per_s"] = mr.RawQueriesPerS
		rep.Metrics["queries_per_s"] = mr.QueriesPerS
		rep.Metrics["query_p50_ms"] = mr.P50MS
		rep.Metrics["query_p90_ms"] = mr.P90MS
		rep.Metrics["first_delivery_p50_ms"] = mr.FirstP50MS
		rep.Metrics["cpu_ms_per_query"] = mr.CPUMSPerQuery
		rep.Metrics["allocs_per_query"] = float64(p.Mallocs) / q
		rep.Metrics["alloc_kb_per_query"] = float64(p.Bytes) / 1024 / q
		rep.Metrics["fetches_per_query"] = float64(p.Fetches) / q
		e.quiesce()
		rep.Metrics["heap_live_mb"] = heapLiveMB()
		rep.RSSPeakMB = rssPeakMB()
		return rep, nil
	}

	// Untraced and traced rounds alternate, so that the host's drift falls
	// on both alike and their difference is the tracing.
	p, traced := &phaseStats{}, &phaseStats{}
	for r := 0; r < cfg.rounds; r++ {
		p.add(e.runPhase(ctx, 1, cfg.passes, cfg.yards))
		e.tr.begin(e)
		traced.add(e.runPhase(ctx, 1, cfg.passes, cfg.yards))
		e.tr.end(e)
	}
	rep.Attempted, rep.Failed = p.Queries+traced.Queries, p.Failed+traced.Failed
	rep.Failures, rep.GCs = append(p.Failures, traced.Failures...), traced.GCs
	rep.PerRound, rep.YardstickMS = traced.Rounds, traced.medianRound().YardstickMS
	layers, err := e.tr.layerMetrics(ctx, e, traced, p)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.spec.Name, err)
	}
	rep.Metrics = layers
	rep.RSSPeakMB = rssPeakMB()
	rep.Metrics["host.rss_peak_mb"] = rep.RSSPeakMB
	rep.MinSelfMS = float64(e.tr.sums.minSelfNS) / 1e6
	if rep.SpanFile, err = e.tr.writeSpans(cfg.out, cfg.spec.Name, cfg.seed); err != nil {
		return nil, fmt.Errorf("%s: writing spans: %w", cfg.spec.Name, err)
	}
	return rep, nil
}

// measure runs one workload in child processes of this binary: setupRuns-1
// that only set up, then the one that measures. setup_s is the median of
// all of them.
func measure(w workloadSpec, o options) (*report, error) {
	if o.trace {
		return spawn(w, o, false)
	}
	var setups, rawSetups []float64
	var rep *report
	for i := 0; i < setupRuns; i++ {
		var err error
		if rep, err = spawn(w, o, i < setupRuns-1); err != nil {
			return nil, err
		}
		setups = append(setups, rep.Metrics["setup_s"])
		rawSetups = append(rawSetups, rep.Raw["setup_s"])
	}
	rep.SetupSamples = setups
	rep.Metrics["setup_s"], rep.Raw["setup_s"] = median(setups), median(rawSetups)
	return rep, nil
}

// spawn re-executes this binary as a child for one workload and waits for
// it. Each workload gets a fresh process so that peak RSS, CPU time and
// heap are its own.
func spawn(w workloadSpec, o options, setupOnly bool) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", "-workload", w.Name,
		"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds),
		"-trace="+strconv.FormatBool(o.trace), "-setuponly="+strconv.FormatBool(setupOnly), "-out", o.out)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(workers),
		spawnEnv+"="+strconv.FormatInt(time.Now().UnixNano(), 10))
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: child: %w", w.Name, err)
	}
	var rep report
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &rep); err != nil {
		return nil, fmt.Errorf("%s: child report: %w", w.Name, err)
	}
	return &rep, nil
}

func printHeader(o options) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	mode := "end-to-end"
	if o.trace {
		mode = "traced per-layer"
	}
	fmt.Printf("webbase bench (%s): seed=%d seconds=%d commit=%s go=%s GOMAXPROCS=%d nproc=%d workers=%d\n",
		mode, o.seed, o.seconds, commit, runtime.Version(), workers, runtime.NumCPU(), workers)
}

// printReport prints every metric by name with its unit, then the one-line
// JSON result.
func printReport(w io.Writer, rep *report) {
	specs := endToEnd
	if rep.Trace {
		specs = perLayer
	}
	fmt.Fprintf(w, "\n== %s  %s clients=%d rounds=%d passes_per_round=%d deck=%d  attempted=%d failed=%d\n",
		rep.Workload, rep.Loop, rep.Clients, rep.Rounds, rep.PassesPerRound, rep.Deck, rep.Attempted, rep.Failed)
	fmt.Fprintf(w, "   informational: yardstick=%.2fms (reference %.2fms) rss_peak=%.1fMiB gc_cycles=%d", rep.YardstickMS, yardstickRefMS, rep.RSSPeakMB, rep.GCs)
	if !rep.Trace {
		fmt.Fprintf(w, " raw_setup_s=%.4f raw_queries_per_s=%.2f", rep.Raw["setup_s"], rep.Raw["queries_per_s"])
	}
	fmt.Fprintln(w)
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	for _, s := range specs {
		note := ""
		switch s.Name {
		case "setup_s":
			note = fmt.Sprintf("  (median of %d fresh processes)", len(rep.SetupSamples))
		case "query_p50_ms", "query_p90_ms", "first_delivery_p50_ms":
			note = fmt.Sprintf("  (median round; %d samples per round)", rep.PerRound[0].Samples)
		case "queries_per_s", "cpu_ms_per_query":
			note = "  (median round)"
		}
		fmt.Fprintf(w, "   %-34s %14.4f %-6s%s\n", s.Name, rep.Metrics[s.Name], s.Unit, note)
	}
	if rep.SpanFile != "" {
		fmt.Fprintf(w, "   spans: %s\n", rep.SpanFile)
	}
	fmt.Fprintln(w, resultLine(rep, specs))
}

// resultLine is the machine-readable result: correct, attempted, failed
// and every metric of the pass with its unit.
func resultLine(rep *report, specs []metricSpec) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, make(map[string]value, len(specs))}
	for _, s := range specs {
		out.Metrics[s.Name] = value{rep.Metrics[s.Name], s.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always encode
	}
	return string(b)
}
