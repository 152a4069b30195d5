package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"webbase"
	"webbase/client"
	"webbase/internal/server"
	"webbase/internal/sites"
)

// env is one workload's assembled system: the simulated Web, the webbase
// over it and, for served workloads, the query service on a loopback
// listener with a client pointed at it.
type env struct {
	spec   workloadSpec
	deck   []string
	golden map[string]checksum

	sys *webbase.System

	ln        *countingListener
	httpSrv   *http.Server
	transport *http.Transport
	client    *client.Client

	tr *tracer // nil unless -trace
}

// newEnv does the fixed set-up work: build the world, assemble the
// system, listen, compute goldens, and warm up with two full deck passes
// through the workload's own path. Nothing here depends on a clock.
func newEnv(spec workloadSpec, seed int64, traced bool, deckLimit int) (*env, error) {
	e := &env{spec: spec, deck: buildDeck(spec, seed)}
	if deckLimit > 0 && deckLimit < len(e.deck) {
		e.deck = e.deck[:deckLimit]
	}
	world := sites.BuildWorld()

	golden, err := goldens(world, e.deck)
	if err != nil {
		return nil, err
	}
	e.golden = golden

	var fetcher webbase.Fetcher = world.Server
	if traced {
		e.tr = newTracer()
		fetcher = e.tr.wrapFetcher(fetcher)
	}
	e.sys, err = webbase.New(webbase.Config{Fetcher: fetcher, Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("assembling system: %w", err)
	}
	if spec.Served {
		if err := e.serve(); err != nil {
			return nil, err
		}
	}

	ctx := context.Background()
	if traced && spec.Served {
		// Unsevered reference streams for the client decode replay.
		if err := e.tr.recordStreams(ctx, e); err != nil {
			e.close()
			return nil, err
		}
	}
	for pass := 0; pass < 2; pass++ {
		for _, text := range e.deck {
			if r := e.op(ctx, text); r.err != "" {
				e.close()
				return nil, fmt.Errorf("warm-up: %s: %s", text, r.err)
			}
		}
	}
	if traced {
		e.tr.fixtureOn.Store(false)
	}
	runtime.GC()
	return e, nil
}

// goldens evaluates every distinct deck query on a separate sequential
// system with buffered delivery — the simplest path through the code —
// and keeps the tuple multiset's checksum.
func goldens(world *sites.World, deck []string) (map[string]checksum, error) {
	ref, err := webbase.New(webbase.Config{Fetcher: world.Server, Workers: 1})
	if err != nil {
		return nil, fmt.Errorf("assembling golden system: %w", err)
	}
	out := make(map[string]checksum, len(deck))
	for _, text := range deck {
		res, _, err := ref.QueryString(text)
		if err != nil {
			return nil, fmt.Errorf("golden for %q: %w", text, err)
		}
		if res.Degradation != nil {
			return nil, fmt.Errorf("golden for %q: degraded answer", text)
		}
		out[text] = checksumOf(res.Relation.Tuples())
	}
	return out, nil
}

// serve mounts internal/server's handler on a real TCP listener in this
// process and points a gzip client at it.
func (e *env) serve() error {
	srv, err := server.New(server.Config{System: e.sys})
	if err != nil {
		return fmt.Errorf("assembling server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listening: %w", err)
	}
	e.ln = &countingListener{Listener: ln}
	handler := srv.Handler()
	if e.tr != nil {
		handler = e.tr.wrapHandler(handler)
	}
	e.httpSrv = &http.Server{Handler: handler}
	go e.httpSrv.Serve(e.ln) // returns ErrServerClosed when close() shuts it down

	e.transport = &http.Transport{MaxIdleConnsPerHost: e.spec.Clients}
	var rt http.RoundTripper = e.transport
	if e.spec.Sever {
		rt = newSeverTransport(rt)
	}
	if e.tr != nil {
		rt = e.tr.wrapTransport(rt)
	}
	e.client, err = e.newClient(rt)
	return err
}

func (e *env) newClient(rt http.RoundTripper) (*client.Client, error) {
	cl, err := client.New(client.Config{
		BaseURL:     "http://" + e.ln.Addr().String(),
		HTTPClient:  &http.Client{Transport: rt},
		BackoffBase: time.Microsecond,
	})
	if err != nil {
		return nil, fmt.Errorf("assembling client: %w", err)
	}
	return cl, nil
}

// quiesce stops accepting queries and waits for the handlers still
// running — on serve_resume the abandoned first attempts — so that the live
// heap is read with the server idle.
func (e *env) quiesce() {
	if e.httpSrv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	e.httpSrv.Shutdown(ctx) // on timeout close() cuts what is left
}

// close stops the listener and every connection; it returns once the
// server's goroutines have ended.
func (e *env) close() {
	if e.httpSrv != nil {
		e.httpSrv.Close()
		e.transport.CloseIdleConnections()
	}
	e.sys.Close()
}

// opResult is one query's outcome as the closed loop saw it.
type opResult struct {
	latency time.Duration // call/POST to return/trailer
	first   time.Duration // call/POST to the first delivery
	err     string        // empty when the answer matched its golden
}

// op runs one query through the workload's path and verifies the answer.
func (e *env) op(ctx context.Context, text string) opResult {
	if e.spec.Served {
		return e.servedQuery(ctx, text)
	}
	return e.libraryQuery(ctx, text)
}

func (e *env) libraryQuery(ctx context.Context, text string) opResult {
	if e.spec.Cold {
		e.sys.Cache().Clear() // untimed, O(1)
	}
	var (
		r    opResult
		sum  checksum
		bad  string
		sink = func(time.Time) {}
	)
	qt := e.tr.beginLibrary(text)
	if qt != nil {
		ctx = qt.context(ctx)
		sink = qt.delivered
	}
	start := time.Now()
	q, err := webbase.ParseQuery(e.sys, text)
	if err != nil {
		return opResult{err: err.Error()}
	}
	onDelivery := func(d webbase.ObjectDelivery) {
		now := time.Now()
		if r.first == 0 {
			r.first = now.Sub(start)
		}
		sink(now)
		if d.Failure != nil {
			bad = "object degraded: " + d.Failure.Host
		}
		for _, t := range d.Tuples {
			sum.add(t)
		}
	}
	var stats *webbase.QueryStats
	if qt != nil {
		var tree *webbase.Trace
		execStart := time.Now()
		_, stats, tree, err = e.sys.QueryStreamTraced(ctx, q, onDelivery)
		r.latency = time.Since(start)
		qt.endLibrary(start, execStart, r.latency, tree, stats)
	} else {
		_, _, err = e.sys.QueryStream(ctx, q, onDelivery)
		r.latency = time.Since(start)
	}
	switch {
	case err != nil:
		r.err = err.Error()
	case bad != "":
		r.err = bad
	case sum != e.golden[text]:
		r.err = fmt.Sprintf("checksum mismatch: got %d tuples, golden %d", sum.count, e.golden[text].count)
	}
	return r
}

func (e *env) servedQuery(ctx context.Context, text string) opResult {
	var (
		r       opResult
		sum     checksum
		lastSeq int
		dup     bool
	)
	start := time.Now()
	st, err := e.client.Query(ctx, text)
	if err != nil {
		return opResult{err: err.Error()}
	}
	defer st.Close()
	for st.Next() {
		if r.first == 0 {
			r.first = time.Since(start)
		}
		d := st.Delivery()
		if d.Seq <= lastSeq {
			dup = true
		}
		lastSeq = d.Seq
		for _, t := range d.Tuples {
			sum.add(t)
		}
	}
	r.latency = time.Since(start)
	wantAttempts := 1
	if e.spec.Sever {
		wantAttempts = 2
	}
	switch tl := st.Trailer(); {
	case st.Err() != nil:
		r.err = st.Err().Error()
	case tl == nil:
		r.err = "stream ended without a trailer"
	case dup:
		r.err = "duplicate or out-of-order seq"
	case st.Attempts() != wantAttempts:
		r.err = fmt.Sprintf("attempts = %d, want %d", st.Attempts(), wantAttempts)
	case tl.Degradation != nil:
		r.err = "degraded answer"
	case sum != e.golden[text] || tl.Tuples != sum.count:
		r.err = fmt.Sprintf("checksum mismatch: got %d tuples, trailer %d, golden %d", sum.count, tl.Tuples, e.golden[text].count)
	default:
		e.tr.endServed(st.Meta().RequestID, text, start, r.latency, st.Attempts(), tl.Stats)
	}
	return r
}

// fetches is the number of page accesses by navigation so far, cache hits
// and misses alike: the paper's "pages navigated".
func (e *env) fetches() int64 {
	c := e.sys.Cache()
	return c.Hits() + c.Misses()
}

// roundStats are one round's timed metrics. The clocks are host-normalised
// (see yardstick): scaled by what the yardstick read during this round
// against its reference reading.
type roundStats struct {
	QueriesPerS    float64 `json:"queries_per_s"`
	P50MS          float64 `json:"query_p50_ms"`
	P90MS          float64 `json:"query_p90_ms"`
	FirstP50MS     float64 `json:"first_delivery_p50_ms"`
	CPUMSPerQuery  float64 `json:"cpu_ms_per_query"`
	RawQueriesPerS float64 `json:"raw_queries_per_s"` // as the wall clock had it
	YardstickMS    float64 `json:"yardstick_ms"`      // median of this round's samples
	Samples        int     `json:"samples"`

	latencies []float64 // raw, sorted
}

// phaseStats are a measured phase: per-round timings plus run totals.
type phaseStats struct {
	Rounds   []roundStats
	Queries  int
	Failed   int
	Failures []string // the first few, for the report
	Mallocs  uint64
	Bytes    uint64
	Fetches  int64
	GCs      uint32
}

// add appends another phase's rounds and totals.
func (p *phaseStats) add(o *phaseStats) {
	p.Rounds = append(p.Rounds, o.Rounds...)
	p.Queries += o.Queries
	p.Failed += o.Failed
	p.Failures = append(p.Failures, o.Failures...)
	p.Mallocs += o.Mallocs
	p.Bytes += o.Bytes
	p.Fetches += o.Fetches
	p.GCs += o.GCs
}

// medianRound reports each timed metric's median over the rounds.
func (p *phaseStats) medianRound() roundStats {
	pick := func(f func(roundStats) float64) float64 {
		vals := make([]float64, len(p.Rounds))
		for i, r := range p.Rounds {
			vals[i] = f(r)
		}
		return median(vals)
	}
	return roundStats{
		QueriesPerS:    pick(func(r roundStats) float64 { return r.QueriesPerS }),
		P50MS:          pick(func(r roundStats) float64 { return r.P50MS }),
		P90MS:          pick(func(r roundStats) float64 { return r.P90MS }),
		FirstP50MS:     pick(func(r roundStats) float64 { return r.FirstP50MS }),
		CPUMSPerQuery:  pick(func(r roundStats) float64 { return r.CPUMSPerQuery }),
		RawQueriesPerS: pick(func(r roundStats) float64 { return r.RawQueriesPerS }),
		YardstickMS:    pick(func(r roundStats) float64 { return r.YardstickMS }),
		Samples:        p.Rounds[0].Samples,
	}
}

// runPhase is the closed loop: nRounds rounds of passes whole deck passes,
// spec.Clients clients each issuing its next query when the last returned.
// Only the passes are measured — wall clock, CPU time and allocations are
// read round each one — because the yardstick runs between them.
func (e *env) runPhase(ctx context.Context, nRounds, passes, yardsPerRound int) *phaseStats {
	results := make([]opResult, len(e.deck))
	yardsPerPass := (yardsPerRound + passes - 1) / passes
	p := &phaseStats{}
	fetch0 := e.fetches()
	for r := 0; r < nRounds; r++ {
		var (
			wall, cpu time.Duration
			yards     []float64
			first     []float64
			rs        roundStats
		)
		for pass := 0; pass < passes; pass++ {
			for i := 0; i < yardsPerPass; i++ {
				yards = append(yards, ms(yardstick()))
			}
			mem0, cpu0, t0 := readMem(), cpuTime(), time.Now()
			var next atomic.Int64
			var wg sync.WaitGroup
			for c := 0; c < e.spec.Clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= len(e.deck) {
							return
						}
						results[i] = e.op(ctx, e.deck[i])
					}
				}()
			}
			wg.Wait()
			wall += time.Since(t0)
			cpu += cpuTime() - cpu0
			mem1 := readMem()
			p.Mallocs += mem1.mallocs - mem0.mallocs
			p.Bytes += mem1.bytes - mem0.bytes
			p.GCs += mem1.gcs - mem0.gcs

			for _, res := range results {
				if res.err != "" {
					p.Failed++
					if len(p.Failures) < 5 {
						p.Failures = append(p.Failures, res.err)
					}
					continue
				}
				rs.latencies = append(rs.latencies, ms(res.latency))
				first = append(first, ms(res.first))
			}
		}
		n := passes * len(e.deck)
		rs.YardstickMS = median(yards)
		scale := hostScale(rs.YardstickMS)
		sort.Float64s(rs.latencies)
		sort.Float64s(first)
		rs.Samples = n
		rs.RawQueriesPerS = float64(n) / wall.Seconds()
		rs.QueriesPerS = rs.RawQueriesPerS / scale
		rs.CPUMSPerQuery = scale * ms(cpu) / float64(n)
		rs.P50MS = scale * percentile(rs.latencies, 0.5)
		rs.P90MS = scale * percentile(rs.latencies, 0.9)
		rs.FirstP50MS = scale * percentile(first, 0.5)
		p.Rounds = append(p.Rounds, rs)
		p.Queries += n
	}
	p.Fetches = e.fetches() - fetch0
	return p
}

// countingListener counts the bytes crossing the accepted connections,
// both ways: what the served workloads put on the wire.
type countingListener struct {
	net.Listener
	bytes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, bytes: &l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}
