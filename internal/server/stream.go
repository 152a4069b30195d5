package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"webbase/internal/core"
	"webbase/internal/ur"
	"webbase/internal/wire"
)

// streamWriter writes the NDJSON protocol (package wire) onto one response. Deliveries
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
	gz      *gzipStream
	enc     *json.Encoder
	meta    wire.Meta
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
		meta:       wire.Meta{RequestID: rid, Query: query, Schema: schema, ResumeToken: token},
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
	sw.w.Header().Set("Content-Type", wire.ContentType)
	sw.w.Header().Set(wire.HeaderRequestID, sw.meta.RequestID)
	if sw.useGzip {
		sw.w.Header().Set("Content-Encoding", "gzip")
		sw.w.Header().Set("Vary", "Accept-Encoding")
	}
	sw.w.WriteHeader(http.StatusOK)
	if sw.useGzip {
		sw.gz = newGzipStream(sw.w)
		sw.enc = json.NewEncoder(sw.gz)
	}
	if sw.resumeFrom >= 0 {
		sw.skipped++ // the meta event, seq 0, already delivered originally
		return
	}
	sw.enc.Encode(wire.MetaLine(sw.meta))
}

func (sw *streamWriter) emitLocked(line any) {
	sw.enc.Encode(line) // an aborted client surfaces at the next write; nothing to do here
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
					sw.emitLocked(wire.KeepaliveLine())
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
	sw.emitLocked(wire.DeliveryLine(d))
}

// writeTrailer closes a successful stream. The trailer's sequence number
// continues the delivery numbering — suppressed deliveries count — so a
// stitched resumed stream is numbered exactly like an uninterrupted one.
func (sw *streamWriter) writeTrailer(res *ur.Result, qs *core.QueryStats) {
	sw.stopKeepalive()
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.startLocked()
	tl := wire.Trailer{
		Tuples:  res.Relation.Len(),
		Objects: len(res.Plan.Objects),
		Skipped: res.Skipped,
		Stats:   qs,
	}
	if res.Degradation != nil {
		tl.Degradation = &wire.Degradation{
			Unavailable: res.Degradation.Unavailable,
			StaleServed: res.Degradation.StaleServed,
			Report:      res.Degradation.String(),
		}
	}
	sw.emitLocked(wire.TrailerLine(sw.lastSeq+1, tl))
	sw.finishLocked()
}

// writeErrorEvent ends a stream whose query failed after events were
// already written.
func (sw *streamWriter) writeErrorEvent(body wire.ErrorBody) {
	sw.stopKeepalive()
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.emitLocked(wire.ErrorLine(sw.lastSeq+1, body))
	sw.finishLocked()
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

// writeGzipped compresses one non-streaming response (GET /metrics).
func writeGzipped(w http.ResponseWriter, status int, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Encoding", "gzip")
	w.Header().Set("Vary", "Accept-Encoding")
	w.WriteHeader(status)
	gz := newGzipStream(w)
	gz.Write(body)
	gz.Close()
}
