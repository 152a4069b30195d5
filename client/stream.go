package client

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"webbase"
	"webbase/internal/wire"
)

// The stream's opening and closing events, as internal/wire declares them.
type (
	// Meta is the opening event: the request identity, the answer schema,
	// and the consistency token resumes present back to the server.
	Meta = wire.Meta
	// Trailer is the closing event: the answer's totals and the
	// server-side QueryStats. On a resumed stream the totals cover the
	// whole answer, delivered prefix included, while Stats covers only
	// the final (resumed) execution.
	Trailer = wire.Trailer
)

// Stream iterates one query's answer in the bufio.Scanner style:
//
//	st, err := c.Query(ctx, "SELECT Make, Model WHERE ...")
//	if err != nil { ... }
//	defer st.Close()
//	for st.Next() {
//	    d := st.Delivery()
//	    ... // d.Tuples, d.Failure, d.Skipped — plan order, duplicate-free
//	}
//	if err := st.Err(); err != nil { ... }
//	trailer := st.Trailer() // non-nil iff Err() == nil
//
// The stream is self-healing: when the connection drops — mid-body,
// between events, or because the server restarted — Next transparently
// reconnects with capped exponential backoff and resumes from the last
// delivered event, so the caller observes one uninterrupted, exactly-once
// delivery sequence, byte-identical to an unbroken run. Reconnection
// spends the same per-query attempt budget as the initial connect; when
// it is exhausted, or the failure is one a retry cannot change, Next
// returns false and Err reports the typed cause.
//
// With a multi-replica Client, each reconnect may land on a different
// replica. When the new replica refuses the resume with 409
// resume-inconsistent — its web view diverged from the replica that
// delivered the prefix, so splicing their answers would be unsound —
// the stream restarts from zero on that replica instead of failing:
// Restarted flips true and every delivery is re-fetched, so a caller
// accumulating tuples must discard what it holds when it sees the flag.
//
// A Stream is not safe for concurrent use.
type Stream struct {
	c     *Client
	ctx   context.Context
	query string
	rid   string

	attempts   int
	lastErr    error
	ep         string // endpoint serving (or last to serve) this stream
	failovers  int    // attempts that switched endpoints
	restarts   int    // restart-from-zero count (409 on resume)
	keepalives int    // keepalive events consumed

	resp     *http.Response
	body     *bufio.Reader      // the current attempt's events; nil between attempts
	cancel   context.CancelFunc // aborts the current attempt's request context
	watchdog *time.Timer        // first-event / inter-event stall watchdog

	// rd is lent by the Client from Query until the stream ends; every
	// attempt Resets it onto its body.
	rd *readers

	meta    Meta
	gotMeta bool
	lastSeq int // highest delivery seq handed to the caller; the resume offset

	cur     webbase.ObjectDelivery
	trailer *Trailer
	err     error
	done    bool
}

// Meta returns the stream's opening event. Valid as soon as Query returns.
func (s *Stream) Meta() Meta { return s.meta }

// Delivery returns the current delivery. Valid after Next returns true,
// until the next call to Next.
func (s *Stream) Delivery() webbase.ObjectDelivery { return s.cur }

// Trailer returns the closing event: non-nil exactly when the stream
// ended cleanly (Next returned false and Err is nil).
func (s *Stream) Trailer() *Trailer { return s.trailer }

// Err returns the terminal error, nil for a clean end. Typed: match with
// errors.Is against the package sentinels.
func (s *Stream) Err() error { return s.err }

// Attempts reports how many connection attempts the stream has used,
// the initial connect included.
func (s *Stream) Attempts() int { return s.attempts }

// Endpoint reports the replica serving (or last to serve) the stream.
func (s *Stream) Endpoint() string { return s.ep }

// Failovers reports how many attempts switched to a different replica.
func (s *Stream) Failovers() int { return s.failovers }

// Restarts reports how many times the stream restarted from zero after a
// replica refused its resume (409 resume-inconsistent). Each restart
// re-fetches the whole answer; a caller accumulating deliveries must
// discard its prefix whenever Restarts advances between Next calls.
func (s *Stream) Restarts() int { return s.restarts }

// Restarted reports whether the stream has restarted from zero at least
// once, i.e. whether deliveries before the most recent restart were
// superseded by a re-fetch.
func (s *Stream) Restarted() bool { return s.restarts > 0 }

// Keepalives reports how many keepalive events the stream has consumed.
// Keepalives are seq-less liveness probes — never surfaced as deliveries,
// never acked — whose only effect is re-arming the stall watchdog.
func (s *Stream) Keepalives() int { return s.keepalives }

// readers is a stream's decoding chain. body buffers the response, so
// that gzip.Reader.Reset finds a flate.Reader and makes no buffer of its
// own; zr inflates what body reads; lines splits the events, out of zr or,
// for an uncompressed answer, out of the body itself.
type readers struct {
	body  bufio.Reader
	zr    gzip.Reader
	lines bufio.Reader
}

// Close releases the stream's connection and gives its readers back to the
// Client. Safe to call at any point and more than once; iterating a closed
// stream returns false. A stream left neither drained nor closed counts as
// open, and its Client keeps returned readers for as long as it does.
func (s *Stream) Close() error {
	s.end()
	if !s.done && s.err == nil {
		s.err = fmt.Errorf("client: stream closed before completion")
		s.done = true
	}
	return nil
}

// Next advances to the next delivery, transparently reconnecting and
// resuming across dropped connections. It returns false at the trailer
// (clean end) or on a terminal error — check Err to tell them apart.
func (s *Stream) Next() bool {
	if s.done {
		return false
	}
	for {
		line, err := s.readLine()
		if err != nil {
			if !s.recover(err) {
				return false
			}
			continue
		}
		ev, err := parseEvent(line)
		if err != nil {
			s.terminate(err)
			return false
		}
		switch ev.Kind {
		case wire.KindMeta:
			// A repeated meta (server replayed from scratch after the
			// client lost state) carries nothing new; skip it.
			continue
		case wire.KindTuples, wire.KindUnavailable, wire.KindSkipped:
			// Exactly once, and none missing: the server numbers deliveries
			// one by one and a resume suppresses exactly the acked prefix,
			// so a delivery that is not the next one is a repeat or a gap.
			if !s.inSequence(ev) {
				return false
			}
			s.lastSeq = ev.Seq
			s.cur = ev.Delivery
			return true
		case wire.KindKeepalive:
			// Seq-less liveness probe. Its whole effect — re-arming the
			// stall watchdog — already happened in readLine.
			s.keepalives++
			continue
		case wire.KindTrailer:
			// A trailer that does not follow the last delivery closes an
			// answer missing a delivery, under totals that count it.
			if !s.inSequence(ev) {
				return false
			}
			s.trailer = ev.Trailer
			s.done = true
			s.end()
			return false
		case wire.KindError:
			if !s.recover(apiError(ev.Error)) {
				return false
			}
			continue
		default:
			s.terminate(fmt.Errorf("%w: unknown event %q", ErrProtocol, ev.Kind))
			return false
		}
	}
}

// inSequence reports whether ev, a delivery or the trailer, is numbered one
// past the last delivery, and otherwise ends the stream with ErrProtocol.
func (s *Stream) inSequence(ev wire.Event) bool {
	if ev.Seq == s.lastSeq+1 {
		return true
	}
	s.terminate(fmt.Errorf("%w: %s event numbered %d after delivery %d", ErrProtocol, ev.Kind, ev.Seq, s.lastSeq))
	return false
}

// recover handles a mid-stream failure: reconnect-and-resume when the
// failure class is retryable and budget remains, terminate otherwise.
// Returns true when the stream is live again.
func (s *Stream) recover(cause error) bool {
	s.closeBody()
	if s.ctx.Err() != nil {
		// The caller gave up; the attempt-level cancel that surfaced as
		// cause is just its echo.
		s.terminate(ctxErr(s.ctx))
		return false
	}
	if !s.retry(cause) {
		s.terminate(cause)
		return false
	}
	if err := s.connect(); err != nil {
		s.terminate(err)
		return false
	}
	return true
}

// retry files one failed attempt, whether it died at dial or mid-stream,
// and reports whether another may follow. An endpoint fault benches the
// endpoint. A refused resume — the replica cannot extend the prefix
// another delivered, because its web view diverged, and splicing would
// be unsound (see DESIGN.md) — rewinds the stream to a fresh query: the
// next dial carries no resume parameters and the whole answer is
// re-fetched, which Restarts/Restarted surface to the caller. Only a
// resume is rewound; a fresh query's 409 falls through as terminal, like
// everything else a retry cannot change.
func (s *Stream) retry(cause error) bool {
	s.lastErr = cause
	if s.ep != "" && endpointFault(cause) {
		s.c.endpoints.fail(s.ep)
	}
	if s.gotMeta && errors.Is(cause, ErrResumeInconsistent) {
		s.restarts++
		s.gotMeta, s.meta, s.lastSeq = false, Meta{}, 0
		return true
	}
	return retryable(cause, s.c.endpoints.multi())
}

func (s *Stream) terminate(err error) {
	s.err = err
	s.done = true
	s.end()
}

// connect runs the attempt loop until a live 200 stream is open (with
// the meta event read, on a fresh stream) or the failure is terminal.
// On reconnects it asks the server to resume from lastSeq.
func (s *Stream) connect() error {
	for {
		if s.ctx.Err() != nil {
			return ctxErr(s.ctx)
		}
		if s.attempts >= s.c.maxAttempts {
			return fmt.Errorf("%w: %d attempts, last failure: %w", ErrRetriesExhausted, s.attempts, s.lastErr)
		}
		s.attempts++
		if s.attempts > 1 {
			// The server's Retry-After hint (429 shed classes) stretches
			// the computed backoff when it asks for more patience, never
			// past the backoff ceiling.
			delay := s.c.backoffDelay(s.rid, s.attempts)
			if ra := retryAfterOf(s.lastErr); ra > delay {
				delay = ra
				if delay > s.c.backoffMax {
					delay = s.c.backoffMax
				}
			}
			if err := s.c.sleep(s.ctx, delay); err != nil {
				return err
			}
		}
		err := s.dial()
		if err == nil {
			return nil
		}
		if s.ctx.Err() != nil {
			return ctxErr(s.ctx)
		}
		if !s.retry(err) {
			return err
		}
	}
}

// dial makes one connection attempt: POST /query (with resume parameters
// when a meta is held), expect a 200 NDJSON stream, and on a fresh stream
// read the meta event. Any non-200 decodes to an *APIError.
func (s *Stream) dial() error {
	req := wire.QueryRequest{Query: s.query}
	if s.gotMeta {
		idx := s.lastSeq
		req.LastEventIndex = &idx
		req.ResumeToken = s.meta.ResumeToken
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("%w: encoding request: %v", ErrProtocol, err)
	}

	// Each attempt asks the replica set for its healthiest endpoint and
	// reports the outcome back: failures rotate the next attempt away
	// from a dying replica while its peers keep serving.
	ep := s.c.endpoints.pick()
	if s.ep != "" && ep != s.ep {
		s.failovers++
	}
	s.ep = ep

	// The attempt context must outlive dial — the response body reads
	// under it — so it is stored and canceled by closeBody, not deferred.
	actx, cancel := context.WithCancel(s.ctx)
	hreq, err := http.NewRequestWithContext(actx, http.MethodPost, ep+"/query", bytes.NewReader(payload))
	if err != nil {
		cancel()
		return fmt.Errorf("%w: building request: %v", ErrProtocol, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(wire.HeaderRequestID, s.rid)
	hreq.Header.Set("Accept-Encoding", "gzip")
	if s.c.apiKey != "" {
		hreq.Header.Set("Authorization", "Bearer "+s.c.apiKey)
	}

	// The watchdog bounds this attempt's time to first event; it is
	// disarmed by the first successful read (here for a fresh stream's
	// meta, in readLine for a resumed stream's first delivery).
	if s.c.attemptTimeout > 0 {
		s.watchdog = time.AfterFunc(s.c.attemptTimeout, cancel)
	}
	fail := func(err error) error {
		s.stopWatchdog()
		cancel()
		return err
	}

	resp, err := s.c.hc.Do(hreq)
	if err != nil {
		return fail(fmt.Errorf("client: connecting: %w", err))
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return fail(decodeEnvelope(resp))
	}
	// Accept-Encoding was set explicitly, so the transport does not
	// decompress for us; unwrap the stream here. gzip.Reader.Reset reads
	// the archive header, which the server flushes with its first event — a
	// stall here is bounded by the attempt watchdog like any first read.
	rd := s.rd
	var events io.Reader = resp.Body
	if strings.EqualFold(resp.Header.Get("Content-Encoding"), "gzip") {
		rd.body.Reset(resp.Body)
		if err := rd.zr.Reset(&rd.body); err != nil {
			resp.Body.Close()
			return fail(fmt.Errorf("client: opening compressed stream: %w", err))
		}
		events = &rd.zr
	}
	rd.lines.Reset(events)
	s.resp = resp
	s.cancel = cancel
	s.body = &rd.lines

	if !s.gotMeta {
		line, err := s.readLine()
		if err != nil {
			s.closeBody()
			return err
		}
		ev, err := parseEvent(line)
		if err != nil {
			s.closeBody()
			return err
		}
		if ev.Kind != wire.KindMeta {
			s.closeBody()
			return fmt.Errorf("%w: stream opened with %q, want %s", ErrProtocol, ev.Kind, wire.KindMeta)
		}
		s.meta = ev.Meta
		s.gotMeta = true
	}
	s.c.endpoints.ok(ep)
	return nil
}

// readLine reads one NDJSON event line. A line that fits the reader's
// buffer is read in place, valid until the next read: wire.Decode copies
// what it keeps. EOF before a terminal event is a truncated stream and
// surfaces as io.ErrUnexpectedEOF (retryable).
func (s *Stream) readLine() ([]byte, error) {
	if s.body == nil {
		return nil, io.ErrUnexpectedEOF
	}
	line, err := s.body.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		// The next read overwrites the buffer line is in.
		whole := append([]byte(nil), line...)
		var rest []byte
		rest, err = s.body.ReadBytes('\n')
		line = append(whole, rest...)
	}
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	s.stopWatchdog()
	// With a stall timeout the watchdog re-arms after every event — any
	// event, keepalives included — so only a stream that goes truly
	// silent gets its attempt killed. Without one the first event
	// disarms it for good (the pre-keepalive behavior).
	if s.c.stallTimeout > 0 && s.cancel != nil {
		s.watchdog = time.AfterFunc(s.c.stallTimeout, s.cancel)
	}
	return line, nil
}

func (s *Stream) stopWatchdog() {
	if s.watchdog != nil {
		s.watchdog.Stop()
		s.watchdog = nil
	}
}

func (s *Stream) closeBody() {
	s.stopWatchdog()
	if s.resp != nil {
		s.resp.Body.Close()
		s.resp = nil
	}
	if s.cancel != nil {
		s.cancel()
		s.cancel = nil
	}
	s.body = nil
}

// end closes the stream's connection and gives its readers back to the
// client, once: at the trailer, on a terminal error, on Close, or when
// Query's connect fails.
func (s *Stream) end() {
	s.closeBody()
	if s.rd != nil {
		s.c.readers.Return(s.rd)
		s.rd = nil
	}
}

// decodeEnvelope turns a non-200 response into its *APIError.
func decodeEnvelope(resp *http.Response) error {
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return fmt.Errorf("client: reading error envelope: %w", err)
	}
	body, err := wire.DecodeEnvelope(raw)
	if err != nil {
		return fmt.Errorf("%w: status %d with %v", ErrProtocol, resp.StatusCode, err)
	}
	ae := apiError(body)
	// Retry-After (whole seconds) rides the envelope's headers; the
	// reconnect loop honors it on retryable codes, capped by BackoffMax.
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return ae
}

// parseEvent decodes one stream line.
func parseEvent(line []byte) (wire.Event, error) {
	ev, err := wire.Decode(line)
	if err != nil {
		return ev, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	return ev, nil
}
