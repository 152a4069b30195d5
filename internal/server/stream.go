package server

import (
	"compress/gzip"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"webbase/internal/core"
	"webbase/internal/relation"
	"webbase/internal/ur"
)

// The NDJSON wire protocol: one JSON object per line, flushed as
// produced. A successful stream is
//
//	{"event":"meta","seq":0, ...}
//	{"event":"tuples"|"unavailable"|"skipped","seq":1..N, ...}   // one per maximal object, plan order
//	{"event":"trailer","seq":N+1, ...}
//
// and a query that fails after streaming began ends with an
// {"event":"error", ...} line instead of the trailer. A query that
// fails before anything streamed gets a plain JSON error envelope with
// an accurate status code (see writeEnvelope); the stream path is
// committed to 200 only once the first event is written.
//
// Every event carries a deterministic sequence number: deliveries are
// released by the UR layer's plan-order gate, so seq k names the same
// event bytes on every execution of the same query against the same web
// state. That makes the stream resumable — a client that received events
// through seq k repeats the request with Last-Event-Index: k and the
// original meta event's resume_token, and the server re-executes the
// query with events seq <= k suppressed (acked, not re-sent). The
// stitched sequence is byte-identical to an uninterrupted run; if the
// token no longer matches (a cache clear or a map swap changed the web
// view), the resume is refused with 409 resume-inconsistent instead of
// splicing answers from two different webs.

// metaEvent opens a stream: the request identity, the answer schema, and
// the consistency token a resume must present.
type metaEvent struct {
	Event     string   `json:"event"` // "meta"
	Seq       int      `json:"seq"`   // always 0
	RequestID string   `json:"request_id"`
	Query     string   `json:"query"`
	Schema    []string `json:"schema"`
	// ResumeToken fingerprints the web view (cache generation + map
	// versions) this stream's bytes are a function of. A reconnecting
	// client echoes it in X-Resume-Token.
	ResumeToken string `json:"resume_token"`
}

// tuplesEvent carries one maximal object's new unique tuples — or, for
// an ORDER BY / LIMIT query (index -1, buffered), the whole sorted
// answer at once.
type tuplesEvent struct {
	Event    string   `json:"event"` // "tuples"
	Seq      int      `json:"seq"`
	Index    int      `json:"index"`
	Object   []string `json:"object,omitempty"`
	Buffered bool     `json:"buffered,omitempty"`
	Count    int      `json:"count"`
	Tuples   [][]any  `json:"tuples"`
}

// unavailableEvent reports a maximal object degraded out of the answer.
type unavailableEvent struct {
	Event   string         `json:"event"` // "unavailable"
	Seq     int            `json:"seq"`
	Index   int            `json:"index"`
	Object  []string       `json:"object"`
	Failure ur.SiteFailure `json:"failure"`
}

// skippedEvent reports a maximal object skipped on binding grounds.
type skippedEvent struct {
	Event  string   `json:"event"` // "skipped"
	Seq    int      `json:"seq"`
	Index  int      `json:"index"`
	Object []string `json:"object"`
	Reason string   `json:"reason"`
}

// keepaliveEvent is a seq-less liveness probe: emitted on a timer while
// evaluation sits between deliveries, so a client watchdog can tell an
// idle-but-alive stream from a stalled one. It carries no sequence
// number, is never acked by a resume, and never counts toward resume
// numbering — suppression and seq continuation see only real events.
type keepaliveEvent struct {
	Event string `json:"event"` // "keepalive"
}

// errorBody is the error payload shared by mid-stream error events and
// pre-stream error envelopes.
type errorBody struct {
	Code      string `json:"code"`
	Status    int    `json:"status"`
	Message   string `json:"message"`
	RequestID string `json:"request_id"`
}

// errorEvent ends a stream that failed after its 200 was committed.
type errorEvent struct {
	Event string    `json:"event"` // "error"
	Seq   int       `json:"seq"`
	Error errorBody `json:"error"`
}

// trailerEvent closes a successful stream with everything the
// in-process caller would have gotten from Result and QueryStats.
type trailerEvent struct {
	Event   string   `json:"event"` // "trailer"
	Seq     int      `json:"seq"`
	Tuples  int      `json:"tuples"`
	Objects int      `json:"objects"`
	Skipped []string `json:"skipped,omitempty"`
	// Degradation mirrors Result.Degradation; Report is its exact
	// String() rendering so remote callers see byte-for-byte what an
	// in-process caller would print.
	Degradation *degradationReport `json:"degradation,omitempty"`
	Stats       *core.QueryStats   `json:"stats"`
}

type degradationReport struct {
	Unavailable []ur.SiteFailure `json:"unavailable"`
	StaleServed int64            `json:"stale_served"`
	Report      string           `json:"report"`
}

// streamWriter writes the NDJSON protocol onto one response. Deliveries
// come through the plan-order gate and the trailer is written after
// evaluation joins its workers, so those writers are serialized among
// themselves — but the keepalive ticker is an out-of-band goroutine that
// writes between deliveries, so every write path takes mu.
//
// resumeFrom >= 0 turns the writer into the suppressed tail of a resumed
// stream: the meta event and every delivery with seq <= resumeFrom are
// acked (counted in skipped) but not re-sent, while sequence numbering
// continues exactly as in an uninterrupted run. Terminal events (trailer,
// error) are never suppressed — a resume means the client did not see the
// stream end.
type streamWriter struct {
	mu      sync.Mutex
	w       http.ResponseWriter
	flusher http.Flusher
	gz      *gzip.Writer
	enc     *json.Encoder
	meta    metaEvent
	started bool

	resumeFrom int // suppress events with seq <= resumeFrom; -1 = fresh stream
	lastSeq    int // highest delivery seq observed, sent or suppressed
	skipped    int // events suppressed by resume (meta included)
	useGzip    bool

	kaStop chan struct{} // closes to stop the keepalive ticker
	kaDone chan struct{} // closes when the ticker goroutine has exited
}

func newStreamWriter(w http.ResponseWriter, rid, query string, schema []string, token string, resumeFrom int, useGzip bool) *streamWriter {
	f, _ := w.(http.Flusher)
	return &streamWriter{
		w: w, flusher: f, enc: json.NewEncoder(w),
		meta:       metaEvent{Event: "meta", Seq: 0, RequestID: rid, Query: query, Schema: schema, ResumeToken: token},
		resumeFrom: resumeFrom,
		useGzip:    useGzip,
	}
}

// startLocked commits the response to a 200 NDJSON stream and encodes the
// meta event (suppressed on a resume — the client has it). Idempotent;
// called lazily by the first event so pre-stream failures can still use
// a proper status code: meta is therefore always followed, under the same
// hold of mu, by the event that caused the start, and rides out on that
// event's flush instead of paying for one of its own. Callers hold mu.
func (sw *streamWriter) startLocked() {
	if sw.started {
		return
	}
	sw.started = true
	sw.w.Header().Set("Content-Type", "application/x-ndjson")
	sw.w.Header().Set("X-Request-Id", sw.meta.RequestID)
	if sw.useGzip {
		sw.w.Header().Set("Content-Encoding", "gzip")
		sw.w.Header().Set("Vary", "Accept-Encoding")
	}
	sw.w.WriteHeader(http.StatusOK)
	if sw.useGzip {
		sw.gz = gzip.NewWriter(sw.w)
		sw.enc = json.NewEncoder(sw.gz)
	}
	if sw.resumeFrom >= 0 {
		sw.skipped++ // the meta event, seq 0, already delivered originally
		return
	}
	sw.enc.Encode(sw.meta)
}

func (sw *streamWriter) emitLocked(event any) {
	sw.enc.Encode(event) // an aborted client surfaces at the next write; nothing to do here
	if sw.gz != nil {
		// Push the event out of the compressor: resumability depends on the
		// client seeing each event as soon as it exists, compressed or not.
		sw.gz.Flush()
	}
	if sw.flusher != nil {
		sw.flusher.Flush()
	}
}

// finishLocked closes the compression layer (if any) after the terminal
// event. Callers hold mu and have already stopped the keepalive ticker.
func (sw *streamWriter) finishLocked() {
	if sw.gz != nil {
		sw.gz.Close()
	}
}

// startKeepalive launches the keepalive ticker: every interval it emits
// one seq-less keepalive event, flushed through the compression layer
// like any other event, but only once the stream has committed — a query
// still failing pre-stream keeps its accurate error envelope. A zero
// interval (the default) is a no-op: not a single byte of any stream
// changes, which is what keeps the golden stream tests byte-identical.
func (sw *streamWriter) startKeepalive(interval time.Duration) {
	if interval <= 0 {
		return
	}
	sw.kaStop = make(chan struct{})
	sw.kaDone = make(chan struct{})
	go func() {
		defer close(sw.kaDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-sw.kaStop:
				return
			case <-t.C:
				sw.mu.Lock()
				if sw.started {
					sw.emitLocked(keepaliveEvent{Event: "keepalive"})
				}
				sw.mu.Unlock()
			}
		}
	}()
}

// stopKeepalive stops the ticker and waits for its goroutine to exit, so
// after it returns no keepalive can interleave with a terminal event or
// land on a closed gzip writer. Idempotent; a no-op when keepalives were
// never started.
func (sw *streamWriter) stopKeepalive() {
	if sw.kaStop == nil {
		return
	}
	close(sw.kaStop)
	<-sw.kaDone
	sw.kaStop = nil
}

// writeDelivery ships one gate delivery as its wire event. Deliveries at
// or before the resume offset were already delivered to this client by a
// previous attempt: they are acked but not re-sent.
func (sw *streamWriter) writeDelivery(d ur.ObjectDelivery) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.startLocked()
	if d.Seq > sw.lastSeq {
		sw.lastSeq = d.Seq
	}
	if sw.resumeFrom >= 0 && d.Seq <= sw.resumeFrom {
		sw.skipped++
		return
	}
	switch {
	case d.Failure != nil:
		sw.emitLocked(unavailableEvent{Event: "unavailable", Seq: d.Seq, Index: d.Index, Object: d.Object, Failure: *d.Failure})
	case d.Skipped != "":
		sw.emitLocked(skippedEvent{Event: "skipped", Seq: d.Seq, Index: d.Index, Object: d.Object, Reason: d.Skipped})
	default:
		sw.emitLocked(tuplesEvent{Event: "tuples", Seq: d.Seq, Index: d.Index, Object: d.Object,
			Buffered: d.Buffered, Count: len(d.Tuples), Tuples: encodeTuples(d.Tuples)})
	}
}

// writeTrailer closes a successful stream. The trailer's sequence number
// continues the delivery numbering — suppressed deliveries count — so a
// stitched resumed stream is numbered exactly like an uninterrupted one.
func (sw *streamWriter) writeTrailer(res *ur.Result, qs *core.QueryStats) {
	sw.stopKeepalive()
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.startLocked()
	ev := trailerEvent{
		Event:   "trailer",
		Seq:     sw.lastSeq + 1,
		Tuples:  res.Relation.Len(),
		Objects: len(res.Plan.Objects),
		Skipped: res.Skipped,
		Stats:   qs,
	}
	if res.Degradation != nil {
		ev.Degradation = &degradationReport{
			Unavailable: res.Degradation.Unavailable,
			StaleServed: res.Degradation.StaleServed,
			Report:      res.Degradation.String(),
		}
	}
	sw.emitLocked(ev)
	sw.finishLocked()
}

// writeErrorEvent ends a stream whose query failed after events were
// already written.
func (sw *streamWriter) writeErrorEvent(body errorBody) {
	sw.stopKeepalive()
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.emitLocked(errorEvent{Event: "error", Seq: sw.lastSeq + 1, Error: body})
	sw.finishLocked()
}

// encodeTuples renders tuples as JSON arrays of native values (null,
// string, number, bool), positionally aligned with the meta schema.
func encodeTuples(ts []relation.Tuple) [][]any {
	out := make([][]any, len(ts))
	for i, t := range ts {
		row := make([]any, len(t))
		for j, v := range t {
			switch v.Kind() {
			case relation.KindString:
				row[j] = v.Str()
			case relation.KindInt:
				row[j] = v.IntVal()
			case relation.KindFloat:
				row[j] = v.FloatVal()
			case relation.KindBool:
				row[j] = v.BoolVal()
			default:
				row[j] = nil
			}
		}
		out[i] = row
	}
	return out
}

// gzipAccepted reports whether the request allows a gzip response body:
// an Accept-Encoding entry names the gzip coding (codings are
// case-insensitive) and does not weigh it q=0, which is an explicit
// refusal (RFC 9110 §12.5.3).
func gzipAccepted(r *http.Request) bool {
	for _, enc := range r.Header.Values("Accept-Encoding") {
		for _, part := range strings.Split(enc, ",") {
			coding, params, _ := strings.Cut(part, ";")
			if !strings.EqualFold(strings.TrimSpace(coding), "gzip") {
				continue
			}
			q, weighed := strings.CutPrefix(strings.ToLower(strings.TrimSpace(params)), "q=")
			weight, err := strconv.ParseFloat(q, 64)
			return !weighed || err != nil || weight > 0
		}
	}
	return false
}

// gzipWriter compresses one non-streaming response (GET /metrics).
func writeGzipped(w http.ResponseWriter, status int, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Encoding", "gzip")
	w.Header().Set("Vary", "Accept-Encoding")
	w.WriteHeader(status)
	gz := gzip.NewWriter(w)
	gz.Write(body)
	gz.Close()
}
