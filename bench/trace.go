package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"webbase"
	"webbase/client"
	"webbase/internal/htmlkit"
	"webbase/internal/navcalc"
	"webbase/internal/trace"
	"webbase/internal/web"
)

// The traced pass: spans recorded from the benchmark's own files, around
// the calls into each layer's public functions. Three sources feed the
// per-layer metrics —
//
//	(a) wrappers the benchmark owns: the web.Fetcher under the system,
//	    the delivery sink, the client's http.RoundTripper, the handler and
//	    the listener;
//	(b) the public System.QueryStreamTraced span tree (query → object → op
//	    → invoke → handle → fetch), self time = duration minus the union of
//	    the child intervals;
//	(c) replays of fixtures recorded in set-up through one layer's public
//	    entry point in isolation: htmlkit.Parse, navcalc.PageToObjects,
//	    webbase.ParseQuery, client decode.
//
// End-to-end metrics are never taken from a traced pass.

// spanRecord is one line of the span file.
type spanRecord struct {
	Query   string `json:"query"` // the query's id; spans of one query share it
	ID      string `json:"id"`
	Parent  string `json:"parent,omitempty"`
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	StartNS int64  `json:"start_ns"` // since the traced phase began
	EndNS   int64  `json:"end_ns"`
}

// pageKey identifies a page body by what a fetch span carries: its URL
// and its size. Two form submissions to one URL with equally long answers
// collide, and cost the same to parse.
type pageKey struct {
	url  string
	size int
}

type interval struct{ start, end time.Time }

// servedRecord is what the client side saw of one served query.
type servedRecord struct {
	rid, text string
	start     time.Time
	latency   time.Duration
	attempts  int
	elapsed   time.Duration // the final attempt's server-side execution time
}

// layerSums accumulate over the traced queries; all times in nanoseconds.
type layerSums struct {
	queries                                                int
	fetchNS, fetches, fetchCache, fetchNetwork, fetchDedup int64
	handleCalls, handleSelfNS, tuplesOut                   int64
	opSelfNS, invocations, rowsIn, rowsOut                 int64
	objects, objectSelfNS, gateWaitNS, poolWaitNS          int64
	querySelfNS, admissionNS, unattributedNS               int64
	minSelfNS                                              int64 // most negative self time seen; 0 when none
	latencies                                              []float64
}

type tracer struct {
	on        atomic.Bool // the wrappers record only during the traced phase
	fixtureOn atomic.Bool // page bodies are kept during set-up only
	epoch     time.Time   // start of the first traced round
	// wire bytes and resume-suppressed events: at the start of the current
	// traced round, and summed over the finished ones
	wire0, skipped0, wire, skipped int64

	renderNS, sitePages, siteBytes atomic.Int64 // (a) the fetcher wrapper
	events                         atomic.Int64 // (a) handler flushes
	inFlight                       sync.WaitGroup

	mu       sync.Mutex
	fixtures map[pageKey][]byte
	streams  map[string][]byte    // query text → unsevered gzip response body
	pages    map[string][]pageKey // query text → pages it accessed, first appearance only
	spans    []spanRecord         // first appearance of each distinct query only
	nextID   int
	sums     layerSums
	served   []servedRecord
	handlers map[string][]interval // request id → handler intervals
	attempts map[string][]interval // request id → round-trip intervals
}

func newTracer() *tracer {
	t := &tracer{
		fixtures: make(map[pageKey][]byte),
		streams:  make(map[string][]byte),
		pages:    make(map[string][]pageKey),
		handlers: make(map[string][]interval),
		attempts: make(map[string][]interval),
	}
	t.fixtureOn.Store(true)
	return t
}

func (t *tracer) active() bool { return t != nil && t.on.Load() }

// begin opens a traced round, once the handlers of the untraced round
// before it have returned: from here on the wrappers record.
func (t *tracer) begin(e *env) {
	t.inFlight.Wait()
	if t.epoch.IsZero() {
		t.epoch = time.Now()
	}
	t.wire0, t.skipped0 = e.wireAndSkipped()
	t.on.Store(true)
}

// end closes a traced round, once the handlers it started have returned.
func (t *tracer) end(e *env) {
	t.inFlight.Wait()
	t.on.Store(false)
	wire, skipped := e.wireAndSkipped()
	t.wire += wire - t.wire0
	t.skipped += skipped - t.skipped0
}

// wireAndSkipped reads the served workloads' two running counters: bytes
// across the listener's connections, and events the server suppressed on
// resumes.
func (e *env) wireAndSkipped() (wire, skipped int64) {
	if !e.spec.Served {
		return 0, 0
	}
	return e.ln.bytes.Load(), e.sys.Metrics().Counter("server_resume_skipped_total").Value()
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// ---- (a) the fetcher under the system: sites rendering ----

type queryKey struct{}

func (t *tracer) wrapFetcher(inner web.Fetcher) web.Fetcher {
	return web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		if !t.on.Load() && !t.fixtureOn.Load() {
			return inner.Fetch(req)
		}
		start := time.Now()
		resp, err := inner.Fetch(req)
		end := time.Now()
		if err != nil {
			return resp, err
		}
		if t.fixtureOn.Load() {
			key := pageKey{req.URL, len(resp.Body)}
			t.mu.Lock()
			if _, ok := t.fixtures[key]; !ok {
				t.fixtures[key] = resp.Body
			}
			t.mu.Unlock()
		}
		if t.on.Load() {
			t.renderNS.Add(int64(end.Sub(start)))
			t.sitePages.Add(1)
			t.siteBytes.Add(int64(len(resp.Body)))
			if q, _ := req.Context().Value(queryKey{}).(*queryTrace); q != nil && q.record {
				fetch := trace.FromContext(req.Context()).ID()
				t.addSpan(spanRecord{Query: q.id, ID: fetch + ".render", Parent: fetch,
					Name: "sites.render " + req.URL, Kind: "render",
					StartNS: t.since(start), EndNS: t.since(end)})
			}
		}
		return resp, nil
	})
}

func (t *tracer) addSpan(s spanRecord) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// ---- (b) library queries: the QueryStreamTraced span tree ----

// queryTrace follows one library query through the traced phase.
type queryTrace struct {
	t          *tracer
	id, text   string
	record     bool        // first appearance of this text: keep spans and the page list
	deliveries []time.Time // (a) when each delivery reached the sink
}

// beginLibrary returns nil outside the traced phase; every method of a nil
// *tracer is a no-op so the untraced path carries no branches of its own.
func (t *tracer) beginLibrary(text string) *queryTrace {
	if !t.active() {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	_, seen := t.pages[text]
	if !seen {
		t.pages[text] = nil
	}
	return &queryTrace{t: t, id: fmt.Sprintf("q%06d", t.nextID), text: text, record: !seen}
}

func (q *queryTrace) context(ctx context.Context) context.Context {
	return context.WithValue(ctx, queryKey{}, q)
}

func (q *queryTrace) delivered(at time.Time) { q.deliveries = append(q.deliveries, at) }

// endLibrary folds the finished query's span tree into the layer sums.
// start is the call (before ParseQuery) and execStart the moment the
// parsed query was handed to the system: the root span's own clock reading
// is private, and it began within a few microseconds of execStart.
func (q *queryTrace) endLibrary(start, execStart time.Time, latency time.Duration, tree *webbase.Trace, qs *webbase.QueryStats) {
	if tree == nil || qs == nil {
		return // the query failed; the closed loop counts it
	}
	root := tree.Export()
	var s layerSums
	var pages []pageKey
	var spans []spanRecord
	base := q.t.since(execStart)
	object := 0

	var walk func(sp *trace.SpanJSON, parent string) int64
	walk = func(sp *trace.SpanJSON, parent string) int64 {
		dur := sp.EndNS - sp.StartNS
		if sp.EndNS == 0 {
			dur = 0 // never ended
		}
		self := dur - covered(sp)
		if self < s.minSelfNS {
			s.minSelfNS = self
		}
		wait := poolWait(sp, dur)
		s.poolWaitNS += wait
		self -= wait
		if q.record {
			spans = append(spans, spanRecord{Query: q.id, ID: sp.ID, Parent: parent, Name: sp.Name,
				Kind: sp.Kind, StartNS: base + sp.StartNS, EndNS: base + sp.EndNS})
		}
		var childRows int64
		for _, c := range sp.Children {
			childRows += walk(c, sp.ID)
		}
		switch sp.Kind {
		case "query":
			s.querySelfNS += self
		case "object":
			s.objects++
			s.objectSelfNS += self
			if object < len(q.deliveries) {
				if wait := q.deliveries[object].Sub(execStart) - time.Duration(sp.EndNS); wait > 0 {
					s.gateWaitNS += int64(wait)
				}
			}
			object++
		case "op":
			s.opSelfNS += self
			s.rowsIn += childRows
			s.rowsOut += sp.Counters["tuples"]
		case "invoke":
			s.opSelfNS += self
			s.invocations++
		case "handle":
			s.handleCalls++
			s.handleSelfNS += self
			s.tuplesOut += sp.Counters["tuples"]
		case "fetch":
			s.fetches++
			s.fetchNS += dur
			switch sp.Labels["outcome"] {
			case "cache":
				s.fetchCache++
			case "network":
				s.fetchNetwork++
			case "dedup":
				s.fetchDedup++
			}
			if q.record && sp.Err == "" {
				pages = append(pages, pageKey{sp.Name, int(sp.Counters["bytes"])})
			}
		}
		return sp.Counters["tuples"]
	}
	walk(root, "")

	s.queries = 1
	s.admissionNS = int64(qs.AdmissionWait)
	s.unattributedNS = int64(latency) - root.EndNS - int64(qs.AdmissionWait)
	s.latencies = []float64{ms(latency)}
	if q.record {
		spans = append(spans, spanRecord{Query: q.id, ID: "call", Name: "bench.query " + q.text, Kind: "call",
			StartNS: q.t.since(start), EndNS: q.t.since(start.Add(latency))})
		for i, at := range q.deliveries {
			spans = append(spans, spanRecord{Query: q.id, ID: fmt.Sprintf("delivery.%d", i), Parent: "call",
				Name: "sink.delivery", Kind: "delivery", StartNS: q.t.since(at), EndNS: q.t.since(at)})
		}
	}

	t := q.t
	t.mu.Lock()
	t.sums.add(s)
	if q.record {
		t.pages[q.text] = pages
		t.spans = append(t.spans, spans...)
	}
	t.mu.Unlock()
}

// poolWait is the part of a span's self time that was not work. Object,
// operator and invoke spans of a parallel fan-out are all created, in plan
// order, before any of them is dispatched, so each one's clock starts
// while it still queues for a worker of the query's pool; the work starts
// with its first child. An invoke span without children was pruned or
// skipped: all of it is queueing.
func poolWait(sp *trace.SpanJSON, dur int64) int64 {
	switch sp.Kind {
	case "object", "op", "invoke":
	default:
		return 0
	}
	if len(sp.Children) == 0 {
		if sp.Kind == "invoke" {
			return dur
		}
		return 0
	}
	first := sp.Children[0].StartNS
	for _, c := range sp.Children[1:] {
		if c.StartNS < first {
			first = c.StartNS
		}
	}
	if wait := first - sp.StartNS; wait > 0 && wait <= dur {
		return wait
	}
	return 0
}

// covered is the length of the union of a span's child intervals, clipped
// to the span itself.
func covered(sp *trace.SpanJSON) int64 {
	ivs := make([][2]int64, len(sp.Children))
	for i, c := range sp.Children {
		ivs[i] = [2]int64{c.StartNS, c.EndNS}
	}
	return unionWithin(ivs, sp.StartNS, sp.EndNS)
}

// unionWithin is the length the intervals cover inside [lo, hi].
func unionWithin(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	end := lo
	for _, iv := range ivs {
		from, to := max(iv[0], end), min(iv[1], hi)
		if to > from {
			total += to - from
			end = to
		}
	}
	return total
}

func (a *layerSums) add(b layerSums) {
	a.queries += b.queries
	a.fetchNS += b.fetchNS
	a.fetches += b.fetches
	a.fetchCache += b.fetchCache
	a.fetchNetwork += b.fetchNetwork
	a.fetchDedup += b.fetchDedup
	a.handleCalls += b.handleCalls
	a.handleSelfNS += b.handleSelfNS
	a.tuplesOut += b.tuplesOut
	a.opSelfNS += b.opSelfNS
	a.invocations += b.invocations
	a.rowsIn += b.rowsIn
	a.rowsOut += b.rowsOut
	a.objects += b.objects
	a.objectSelfNS += b.objectSelfNS
	a.gateWaitNS += b.gateWaitNS
	a.poolWaitNS += b.poolWaitNS
	a.querySelfNS += b.querySelfNS
	a.admissionNS += b.admissionNS
	a.unattributedNS += b.unattributedNS
	if b.minSelfNS < a.minSelfNS {
		a.minSelfNS = b.minSelfNS
	}
	a.latencies = append(a.latencies, b.latencies...)
}

// ---- (a) served queries: handler, transport, client ----

func (t *tracer) wrapHandler(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.inFlight.Add(1)
		defer t.inFlight.Done()
		if !t.on.Load() {
			inner.ServeHTTP(w, r)
			return
		}
		rid := r.Header.Get("X-Request-Id")
		start := time.Now()
		inner.ServeHTTP(&flushCounter{ResponseWriter: w, n: &t.events}, r)
		iv := interval{start, time.Now()}
		t.mu.Lock()
		t.handlers[rid] = append(t.handlers[rid], iv)
		t.mu.Unlock()
	})
}

// flushCounter counts flushes: the stream writer flushes once per event.
type flushCounter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (f *flushCounter) Flush() {
	f.n.Add(1)
	if fl, ok := f.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

func (t *tracer) wrapTransport(inner http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if !t.on.Load() {
			return inner.RoundTrip(req)
		}
		rid := req.Header.Get("X-Request-Id")
		start := time.Now()
		resp, err := inner.RoundTrip(req)
		if err != nil {
			return resp, err
		}
		resp.Body = &closeHook{ReadCloser: resp.Body, fn: func() {
			iv := interval{start, time.Now()}
			t.mu.Lock()
			t.attempts[rid] = append(t.attempts[rid], iv)
			t.mu.Unlock()
		}}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

type closeHook struct {
	io.ReadCloser
	once sync.Once
	fn   func()
}

func (c *closeHook) Close() error {
	c.once.Do(c.fn)
	return c.ReadCloser.Close()
}

func (t *tracer) endServed(rid, text string, start time.Time, latency time.Duration, attempts int, qs *webbase.QueryStats) {
	if !t.active() {
		return
	}
	rec := servedRecord{rid: rid, text: text, start: start, latency: latency, attempts: attempts}
	if qs != nil {
		rec.elapsed = qs.Elapsed
	}
	t.mu.Lock()
	t.served = append(t.served, rec)
	t.mu.Unlock()
}

// recordStreams runs one unsevered deck pass and keeps each query's
// compressed response body, the fixture of the client decode replay.
func (t *tracer) recordStreams(ctx context.Context, e *env) error {
	var buf bytes.Buffer
	cl, err := e.newClient(roundTripFunc(func(req *http.Request) (*http.Response, error) {
		resp, err := e.transport.RoundTrip(req)
		if err == nil {
			resp.Body = struct {
				io.Reader
				io.Closer
			}{io.TeeReader(resp.Body, &buf), resp.Body}
		}
		return resp, err
	}))
	if err != nil {
		return err
	}
	for _, text := range e.deck {
		buf.Reset()
		if err := drain(ctx, cl, text); err != nil {
			return fmt.Errorf("recording %q: %w", text, err)
		}
		t.streams[text] = append([]byte(nil), buf.Bytes()...)
	}
	return nil
}

func drain(ctx context.Context, cl *client.Client, text string) error {
	st, err := cl.Query(ctx, text)
	if err != nil {
		return err
	}
	defer st.Close()
	for st.Next() {
	}
	return st.Err()
}

// ---- (c) replays and the final per-layer table ----

// replayPages pushes the pages each distinct query accessed through
// htmlkit.Parse and navcalc.PageToObjects in isolation, one query at a
// time on one goroutine, and returns the per-query means.
func (t *tracer) replayPages() (r pageReplay) {
	var queries int
	for _, keys := range t.pages {
		if len(keys) == 0 {
			continue
		}
		queries++
		docs := make([]*htmlkit.Node, 0, len(keys))
		urls := make([]string, 0, len(keys))
		m0, s0 := readMem(), time.Now()
		for _, k := range keys {
			body, ok := t.fixtures[k]
			if !ok {
				r.missing++
				continue
			}
			docs = append(docs, htmlkit.Parse(body))
			urls = append(urls, k.url)
			r.bytes += int64(len(body))
		}
		parse, m1 := time.Since(s0), readMem()
		s1 := time.Now()
		for i, doc := range docs {
			store, _ := navcalc.PageToObjects(doc, urls[i])
			runtime.KeepAlive(store)
		}
		objects, m2 := time.Since(s1), readMem()
		r.pages += int64(len(docs))
		r.parseNS += int64(parse)
		r.objectsNS += int64(objects)
		r.parseAllocs += int64(m1.mallocs - m0.mallocs)
		r.objectsAllocs += int64(m2.mallocs - m1.mallocs)
	}
	r.queries = queries
	return r
}

type pageReplay struct {
	queries, missing           int
	pages, bytes               int64
	parseNS, objectsNS         int64
	parseAllocs, objectsAllocs int64
}

// replayParse times webbase.ParseQuery over the deck.
func replayParse(e *env) float64 {
	const reps = 50
	start := time.Now()
	for i := 0; i < reps; i++ {
		for _, text := range e.deck {
			q, _ := webbase.ParseQuery(e.sys, text)
			runtime.KeepAlive(q)
		}
	}
	return ms(time.Since(start)) / float64(reps*len(e.deck))
}

// replayDecode feeds the recorded gzip bodies to client.Client through a
// canned RoundTripper: gunzip, NDJSON decode and tuple conversion with no
// server and no socket.
func (t *tracer) replayDecode(ctx context.Context, e *env) (float64, error) {
	const reps = 10
	var body []byte
	cl, err := e.newClient(roundTripFunc(func(req *http.Request) (*http.Response, error) {
		h := http.Header{}
		h.Set("Content-Type", "application/x-ndjson")
		h.Set("Content-Encoding", "gzip")
		return &http.Response{StatusCode: http.StatusOK, Header: h, Request: req,
			Body: io.NopCloser(bytes.NewReader(body))}, nil
	}))
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < reps; i++ {
		for _, text := range e.deck {
			body = t.streams[text]
			if err := drain(ctx, cl, text); err != nil {
				return 0, fmt.Errorf("decode replay %q: %w", text, err)
			}
		}
	}
	return ms(time.Since(start)) / float64(reps*len(e.deck)), nil
}

// layerMetrics turns the traced rounds into the per-layer table. traced and
// untraced are the statistics of the two kinds of round (same operation
// counts); a served workload's library-side rows come from a one-pass
// in-process shadow of the same deck on the served system.
func (t *tracer) layerMetrics(ctx context.Context, e *env, traced, untraced *phaseStats) (map[string]float64, error) {
	m := make(map[string]float64, len(perLayer))
	for _, s := range perLayer {
		m[s.Name] = 0
	}
	q := float64(traced.Queries)

	if e.spec.Served {
		var handlerNS, reexecNS, transportNS, attempts int64
		for _, rec := range t.served {
			hs := t.handlers[rec.rid]
			if len(hs) == 0 {
				continue
			}
			last := hs[len(hs)-1]
			handlerNS += int64(last.end.Sub(last.start) - rec.elapsed)
			attempts += int64(rec.attempts)
			if rec.attempts > 1 {
				reexecNS += int64(rec.elapsed)
			}
			inHandler := make([][2]int64, len(hs))
			for i, h := range hs {
				inHandler[i] = [2]int64{t.since(h.start), t.since(h.end)}
			}
			from := t.since(rec.start)
			transportNS += int64(rec.latency) - unionWithin(inHandler, from, from+int64(rec.latency))
		}
		decode, err := t.replayDecode(ctx, e)
		if err != nil {
			return nil, err
		}
		m["server.handler_self_ms"] = float64(handlerNS) / 1e6 / q
		m["server.wire_kb"] = float64(t.wire) / 1024 / q
		m["server.events"] = float64(t.events.Load()) / q
		m["server.resume_skipped_events"] = float64(t.skipped) / q
		m["server.reexec_ms"] = float64(reexecNS) / 1e6 / q
		m["client.decode_ms"] = decode
		m["client.attempts"] = float64(attempts) / q
		m["client.resumes"] = float64(attempts)/q - 1
		m["http.transport_ms"] = float64(transportNS)/1e6/q - decode
		t.servedSpans()

		// The served system's library-side layers: one traced in-process
		// pass of the same deck.
		t.on.Store(true)
		defer t.on.Store(false)
		shadow := *e
		shadow.spec.Served = false
		for _, text := range e.deck {
			if r := shadow.libraryQuery(ctx, text); r.err != "" {
				return nil, fmt.Errorf("shadow pass: %s: %s", text, r.err)
			}
		}
	}

	s := t.sums
	lq := float64(s.queries) // library-traced queries (the shadow pass on served workloads)
	perQ := func(ns int64) float64 { return float64(ns) / 1e6 / lq }
	m["sites.render_ms"] = float64(t.renderNS.Load()) / 1e6 / q
	m["sites.pages"] = float64(t.sitePages.Load()) / q
	m["sites.kb"] = float64(t.siteBytes.Load()) / 1024 / q
	if s.fetches > 0 {
		m["web.cache_hit_ratio"] = float64(s.fetchCache) / float64(s.fetches)
	}
	m["web.network_pages"] = float64(s.fetchNetwork) / lq
	m["web.deduped"] = float64(s.fetchDedup) / lq
	m["web.fetch_self_ms"] = perQ(s.fetchNS) - float64(t.renderNS.Load())/1e6/q

	r := t.replayPages()
	if r.missing > 0 {
		return nil, fmt.Errorf("page replay: %d accessed pages have no recorded body", r.missing)
	}
	if r.queries > 0 && r.pages > 0 {
		rq := float64(r.queries)
		m["htmlkit.parse_ms"] = float64(r.parseNS) / 1e6 / rq
		m["htmlkit.parse_mb_per_s"] = float64(r.bytes) / (1 << 20) / (float64(r.parseNS) / 1e9)
		m["htmlkit.parse_allocs_per_page"] = float64(r.parseAllocs) / float64(r.pages)
		m["htmlkit.pages_parsed"] = float64(r.pages) / rq
		m["navcalc.objects_ms"] = float64(r.objectsNS) / 1e6 / rq
		m["navcalc.objects_allocs_per_page"] = float64(r.objectsAllocs) / float64(r.pages)
	}
	m["vps.handle_calls"] = float64(s.handleCalls) / lq
	m["vps.handle_self_ms"] = perQ(s.handleSelfNS)
	m["vps.tuples_out"] = float64(s.tuplesOut) / lq
	m["navcalc.exec_ms"] = m["vps.handle_self_ms"] - m["htmlkit.parse_ms"] - m["navcalc.objects_ms"]
	m["algebra.op_self_ms"] = perQ(s.opSelfNS)
	m["algebra.pool_wait_ms"] = perQ(s.poolWaitNS)
	m["algebra.invocations"] = float64(s.invocations) / lq
	if s.rowsOut > 0 {
		m["algebra.rows_in_per_row_out"] = float64(s.rowsIn) / float64(s.rowsOut)
	}
	m["ur.parse_ms"] = replayParse(e)
	m["ur.objects"] = float64(s.objects) / lq
	m["ur.object_self_ms"] = perQ(s.objectSelfNS)
	m["ur.gate_wait_ms"] = perQ(s.gateWaitNS)
	m["core.query_self_ms"] = perQ(s.querySelfNS)
	m["core.admission_wait_ms"] = perQ(s.admissionNS)
	m["core.unattributed_ms"] = perQ(s.unattributedNS) - m["ur.parse_ms"]

	var all []float64
	for _, rs := range traced.Rounds {
		all = append(all, rs.latencies...)
	}
	sort.Float64s(all)
	m["core.query_p99_ms"] = percentile(all, 0.99)

	// Every clock of the traced phase and its replays is scaled to the
	// reference host like the end-to-end clocks are.
	mr := traced.medianRound()
	scale := hostScale(mr.YardstickMS)
	for _, spec := range perLayer {
		switch spec.Unit {
		case "ms":
			m[spec.Name] *= scale
		case "MiB/s":
			m[spec.Name] /= scale
		}
	}
	plain := untraced.medianRound().QueriesPerS
	m["trace.overhead_pct"] = 100 * (plain - mr.QueriesPerS) / plain
	m["host.yardstick_ms"] = mr.YardstickMS
	return m, nil
}

// servedSpans adds the first appearance of each served query to the span
// file: the client's view, each round trip and each handler run.
func (t *tracer) servedSpans() {
	seen := make(map[string]bool)
	for _, rec := range t.served {
		if seen[rec.text] {
			continue
		}
		seen[rec.text] = true
		t.spans = append(t.spans, spanRecord{Query: rec.rid, ID: "call", Name: "client.query " + rec.text, Kind: "call",
			StartNS: t.since(rec.start), EndNS: t.since(rec.start.Add(rec.latency))})
		for i, iv := range t.attempts[rec.rid] {
			t.spans = append(t.spans, spanRecord{Query: rec.rid, ID: fmt.Sprintf("attempt.%d", i), Parent: "call",
				Name: "http.roundtrip", Kind: "attempt", StartNS: t.since(iv.start), EndNS: t.since(iv.end)})
		}
		for i, iv := range t.handlers[rec.rid] {
			parent := fmt.Sprintf("attempt.%d", i)
			t.spans = append(t.spans, spanRecord{Query: rec.rid, ID: fmt.Sprintf("handler.%d", i), Parent: parent,
				Name: "server.handler", Kind: "handler", StartNS: t.since(iv.start), EndNS: t.since(iv.end)})
		}
	}
}

// writeSpans writes the kept spans as one JSON document and returns its
// path.
func (t *tracer) writeSpans(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	f, err := os.CreateTemp(dir, fmt.Sprintf("webbase-bench-spans-%s-seed%d-*.json", workload, seed))
	if err != nil {
		return "", err
	}
	doc := struct {
		Workload string       `json:"workload"`
		Seed     int64        `json:"seed"`
		Spans    []spanRecord `json:"spans"`
	}{workload, seed, t.spans}
	enc := json.NewEncoder(f)
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return filepath.Clean(f.Name()), nil
}
