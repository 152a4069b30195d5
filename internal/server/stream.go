package server

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"webbase/internal/core"
	"webbase/internal/lend"
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
	codecs  *lend.Stack[codec] // the server's, which lend the stream its codec
	codec   *codec             // borrowed when the stream starts, given back by end
	gz      *gzipStream        // &codec.gz when the stream is compressed
	out     io.Writer          // the response, or gz over it once the stream starts
	meta    wire.Meta
	started bool

	resumeFrom int   // suppress events with seq <= resumeFrom; -1 = fresh stream
	lastSeq    int   // highest delivery seq sent or suppressed; a broken one's is the error's
	skipped    int   // events suppressed by resume (meta included)
	broken     error // the delivery that could not be encoded: the stream ends at it
	useGzip    bool

	kaStop chan struct{} // closes to stop the keepalive ticker
	kaDone chan struct{} // closes when the ticker goroutine has exited
}

func newStreamWriter(w http.ResponseWriter, cs *lend.Stack[codec], rid, query string, schema []string, token string, resumeFrom int, useGzip bool) *streamWriter {
	f, _ := w.(http.Flusher)
	sw := &streamWriter{
		w: w, flusher: f, out: w, codecs: cs,
		meta:       wire.Meta{RequestID: rid, Query: query, Schema: schema, ResumeToken: token},
		resumeFrom: resumeFrom,
		useGzip:    useGzip,
	}
	if resumeFrom >= 0 {
		sw.skipped = 1 // the meta event, seq 0, already delivered originally
	}
	return sw
}

// startLocked commits the response to a 200 NDJSON stream, borrows the
// stream's codec and encodes the meta event (suppressed on a resume — the
// client has it). Idempotent;
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
	sw.codec = sw.codecs.Borrow()
	if sw.useGzip {
		sw.gz = &sw.codec.gz
		sw.gz.reset(sw.w)
		sw.out = sw.gz
	}
	if sw.resumeFrom >= 0 {
		return
	}
	sw.writeLocked(wire.AppendMeta(sw.codec.line[:0], sw.meta))
}

// writeLocked ends line, which is the codec's line buffer appended to,
// with its newline and writes it, keeping its buffer for the next. A
// failed write is not reported: an aborted client surfaces in the
// request's context.
func (sw *streamWriter) writeLocked(line []byte) {
	sw.codec.line = append(line, '\n')
	sw.out.Write(sw.codec.line)
}

// emitLocked writes one line, unless appending it failed, and flushes.
// It reports a line that cannot be encoded, which writes nothing: a
// line's values are strings, numbers, booleans and nulls, and the one
// value JSON has no token for is a non-finite float.
func (sw *streamWriter) emitLocked(line []byte, err error) error {
	if err == nil {
		sw.writeLocked(line)
	}
	if sw.gz != nil {
		// Push the event out of the compressor: resumability depends on the
		// client seeing each event as soon as it exists, compressed or not.
		sw.gz.Flush()
	}
	if sw.flusher != nil {
		sw.flusher.Flush()
	}
	return err
}

// finishLocked closes the compression layer (if any) after the terminal
// event. Callers hold mu, and have stopped the keepalive ticker.
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
				sw.keepalive()
			}
		}
	}()
}

// keepalive emits one keepalive event, but only while the stream holds
// its codec and is not broken: before the start, and once end has given
// the codec back, a tick writes nothing, so the order of end's two steps
// does not matter.
func (sw *streamWriter) keepalive() {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.codec != nil && sw.broken == nil {
		sw.emitLocked(wire.AppendKeepalive(sw.codec.line[:0]), nil)
	}
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

// end stops the keepalive ticker and gives the stream's codec back to the
// server, if the stream started. handleQuery calls it once, as it returns:
// the query has ended and the ticker has exited, so nothing writes to the
// stream after it.
func (sw *streamWriter) end() {
	sw.stopKeepalive()
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.codec != nil {
		sw.codecs.Return(sw.codec)
		sw.codec, sw.gz = nil, nil
	}
}

// writeDelivery ships one gate delivery as its wire event, and reports
// whether the stream can carry more. Deliveries at or before the resume
// offset were already delivered to this client by a previous attempt: they
// are acked but not re-sent. A delivery that cannot be encoded breaks the
// stream: nothing is written after it but the internal error event
// handleQuery ends the stream with, in its place.
func (sw *streamWriter) writeDelivery(d ur.ObjectDelivery) bool {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.broken != nil {
		return false
	}
	sw.startLocked()
	if sw.resumeFrom >= 0 && d.Seq <= sw.resumeFrom {
		sw.skipped++
	} else if err := sw.emitLocked(wire.AppendDelivery(sw.codec.line[:0], d)); err != nil {
		sw.broken = &codedError{wire.CodeInternal, fmt.Errorf("server: delivery %d cannot be encoded: %w", d.Seq, err)}
		return false
	}
	sw.lastSeq = max(sw.lastSeq, d.Seq)
	return true
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
	sw.emitLocked(wire.AppendTrailer(sw.codec.line[:0], sw.lastSeq+1, tl))
	sw.finishLocked()
}

// writeErrorEvent ends a started stream whose query failed, or that a
// delivery broke.
func (sw *streamWriter) writeErrorEvent(body wire.ErrorBody) {
	sw.stopKeepalive()
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.emitLocked(wire.AppendError(sw.codec.line[:0], sw.lastSeq+1, body), nil)
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

// writeGzipped compresses one non-streaming response (GET /metrics) with
// a codec borrowed from cs.
func writeGzipped(w http.ResponseWriter, cs *lend.Stack[codec], status int, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Encoding", "gzip")
	w.Header().Set("Vary", "Accept-Encoding")
	w.WriteHeader(status)
	c := cs.Borrow()
	defer cs.Return(c)
	c.gz.reset(w)
	c.gz.Write(body)
	c.gz.Close()
}

// What a returned codec keeps for the next stream. An idle codec is live
// heap, so what it keeps is bounded.
const (
	// keptCodecs is how many idle codecs wait for the next streams: as
	// many as were open at once, up to this many.
	keptCodecs = 8
	// keptCodecBytes is the largest buffer, in bytes, a returned codec
	// keeps; a longer one goes back to the collector. A T1 stream's
	// buffers are at most about 5 KiB each, and a full table is 16 KiB.
	keptCodecBytes = 16 << 10
)

// codec is what one response borrows from its server to encode itself: a
// compressor and the NDJSON line buffer. Nothing a codec holds outlives
// the response but the codec's own buffers.
type codec struct {
	gz   gzipStream
	line []byte
}

// newCodecs returns the stack a server lends each response's codec from.
func newCodecs() *lend.Stack[codec] {
	return &lend.Stack[codec]{Max: keptCodecs, Reset: (*codec).reset}
}

// reset drops c's response and every buffer of more than keptCodecBytes,
// and keeps c. Nothing may write through c after it.
func (c *codec) reset() bool {
	c.gz.w = nil
	c.gz.hist = lend.Fit(c.gz.hist, keptCodecBytes)
	c.gz.table = lend.Fit(c.gz.table, keptCodecBytes/4)
	c.gz.out = lend.Fit(c.gz.out, keptCodecBytes)
	c.line = lend.Fit(c.line, keptCodecBytes)
	return true
}
