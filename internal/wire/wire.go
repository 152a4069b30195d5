// Package wire is the query service's format on the network, written
// down once: what internal/server encodes is what client, the examples
// and the tests decode. It owns the representation only — header names,
// request and error bodies, the NDJSON line shapes, the tuple encoding,
// and the error-code table — and no policy: which Go error earns which
// code, what a resume may skip, when to retry or fail over all live with
// the side that decides them.
//
// A successful stream is one JSON object per line, flushed as produced:
//
//	{"event":"meta","seq":0, ...}
//	{"event":"tuples"|"unavailable"|"skipped","seq":1..N, ...}   // one per maximal object, plan order
//	{"event":"trailer","seq":N+1, ...}
//
// and a query that fails after streaming began ends with an
// {"event":"error", ...} line instead of the trailer. A query that fails
// before anything streamed gets an Envelope under the code's Status; the
// stream is committed to 200 only once its first event is written.
//
// Every event but keepalive carries a deterministic sequence number:
// deliveries are released by the UR layer's plan-order gate, so seq k
// names the same event bytes on every execution of the same query
// against the same web state. That makes the stream resumable — a client
// that received events through seq k repeats the request with
// Last-Event-Index: k and the meta event's resume_token, and the server
// re-executes the query with events seq <= k suppressed. The stitched
// sequence is byte-identical to an uninterrupted run; a token that no
// longer matches is refused with CodeResumeInconsistent instead of
// splicing answers from two different webs.
package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"webbase/internal/core"
	"webbase/internal/relation"
	"webbase/internal/ur"
)

// Header names and the stream's content type.
const (
	HeaderRequestID      = "X-Request-Id"
	HeaderLastEventIndex = "Last-Event-Index"
	HeaderResumeToken    = "X-Resume-Token"
	ContentType          = "application/x-ndjson"
)

// QueryRequest is the JSON form of a POST /query body (the raw query
// text is the other form). The two resume fields mirror the
// Last-Event-Index / X-Resume-Token headers, which win when both are set.
type QueryRequest struct {
	Query          string `json:"query"`
	LastEventIndex *int   `json:"last_event_index,omitempty"`
	ResumeToken    string `json:"resume_token,omitempty"`
}

// Event kinds: the value of every line's "event" field.
const (
	KindMeta        = "meta"
	KindTuples      = "tuples"
	KindUnavailable = "unavailable"
	KindSkipped     = "skipped"
	KindKeepalive   = "keepalive"
	KindError       = "error"
	KindTrailer     = "trailer"
)

// Meta opens a stream: the request identity, the answer schema, and the
// consistency token a resume must present. ResumeToken fingerprints the
// web view (cache generation + map versions) the stream's bytes are a
// function of.
type Meta struct {
	RequestID   string   `json:"request_id"`
	Query       string   `json:"query"`
	Schema      []string `json:"schema"`
	ResumeToken string   `json:"resume_token"`
}

// Trailer closes a successful stream with everything an in-process
// caller would have gotten from Result and QueryStats. On a resumed
// stream the totals cover the whole answer, delivered prefix included,
// while Stats covers only the final (resumed) execution.
type Trailer struct {
	Tuples      int              `json:"tuples"`
	Objects     int              `json:"objects"`
	Skipped     []string         `json:"skipped,omitempty"`
	Degradation *Degradation     `json:"degradation,omitempty"`
	Stats       *core.QueryStats `json:"stats"`
}

// Degradation mirrors Result.Degradation; Report is its exact String()
// rendering, so remote callers see byte for byte what an in-process
// caller would print.
type Degradation struct {
	Unavailable []ur.SiteFailure `json:"unavailable"`
	StaleServed int64            `json:"stale_served"`
	Report      string           `json:"report"`
}

// ErrorBody is the error payload shared by the mid-stream error event
// and the pre-stream Envelope. In an error event the response was
// already 200; Status carries what an envelope would have used.
type ErrorBody struct {
	Code      string `json:"code"`
	Status    int    `json:"status"`
	Message   string `json:"message"`
	RequestID string `json:"request_id"`
}

// Envelope is the body of a non-200 answer: {"error":{...}}.
type Envelope struct {
	Error ErrorBody `json:"error"`
}

// DecodeEnvelope reads a non-200 body.
func DecodeEnvelope(raw []byte) (ErrorBody, error) {
	var env Envelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code == "" {
		return ErrorBody{}, fmt.Errorf("undecodable error envelope %q", truncate(raw, 200))
	}
	return env.Error, nil
}

// The line shapes. Field order here is the byte order of every stream:
// the embedded head first, then the kind's own fields as declared. They
// are separate structs and not one flat event because two names mean two
// things: "tuples" is the rows of a tuples line and a count in the
// trailer, and "skipped" is a kind and a trailer list.

// kind is the whole of a keepalive line — a seq-less liveness probe that
// is never acked by a resume and never counts toward sequence numbering —
// and what Decode reads first off any line.
type kind struct {
	Event string `json:"event"`
}

// head is not kind plus a seq: a level of embedding is an allocation
// each time encoding/json decodes through it.
type head struct {
	Event string `json:"event"`
	Seq   int    `json:"seq"`
}

type metaLine struct {
	head // seq is always 0
	Meta
}

// tuplesLine carries one maximal object's new unique tuples — or, for an
// ORDER BY / LIMIT query (index -1, buffered), the whole sorted answer.
type tuplesLine struct {
	head
	Index    int      `json:"index"`
	Object   []string `json:"object,omitempty"`
	Buffered bool     `json:"buffered,omitempty"`
	Count    int      `json:"count"`
	Tuples   [][]any  `json:"tuples"`
}

// unavailableLine reports a maximal object degraded out of the answer.
type unavailableLine struct {
	head
	Index   int            `json:"index"`
	Object  []string       `json:"object"`
	Failure ur.SiteFailure `json:"failure"`
}

// skippedLine reports a maximal object skipped on binding grounds.
type skippedLine struct {
	head
	Index  int      `json:"index"`
	Object []string `json:"object"`
	Reason string   `json:"reason"`
}

type errorLine struct {
	head
	Error ErrorBody `json:"error"`
}

type trailerLine struct {
	head
	Trailer
}

// MetaLine is the stream's first line.
func MetaLine(m Meta) any { return metaLine{head{KindMeta, 0}, m} }

// DeliveryLine is one gate delivery as its line: unavailable, skipped or
// tuples, under the delivery's own sequence number.
func DeliveryLine(d ur.ObjectDelivery) any {
	switch {
	case d.Failure != nil:
		return unavailableLine{head{KindUnavailable, d.Seq}, d.Index, d.Object, *d.Failure}
	case d.Skipped != "":
		return skippedLine{head{KindSkipped, d.Seq}, d.Index, d.Object, d.Skipped}
	}
	return tuplesLine{head{KindTuples, d.Seq}, d.Index, d.Object, d.Buffered, len(d.Tuples), EncodeTuples(d.Tuples)}
}

// TrailerLine ends a successful stream.
func TrailerLine(seq int, t Trailer) any { return trailerLine{head{KindTrailer, seq}, t} }

// ErrorLine ends a stream that failed after its 200 was committed.
func ErrorLine(seq int, body ErrorBody) any { return errorLine{head{KindError, seq}, body} }

// KeepaliveLine is the liveness probe.
func KeepaliveLine() any { return kind{KindKeepalive} }

// Event is one decoded line. Kind says which of the other fields is set:
// Meta for KindMeta; Delivery for KindTuples, KindUnavailable and
// KindSkipped; Trailer for KindTrailer; Error for KindError; none for
// KindKeepalive or for a kind this version does not know, which Decode
// hands back by name rather than refusing.
type Event struct {
	Kind     string
	Meta     Meta
	Delivery ur.ObjectDelivery
	Trailer  *Trailer
	Error    ErrorBody
}

// Decode reads one line of a stream.
func Decode(line []byte) (Event, error) {
	var k kind
	if err := json.Unmarshal(line, &k); err != nil || k.Event == "" {
		return Event{}, fmt.Errorf("undecodable event line %q", truncate(line, 200))
	}
	ev := Event{Kind: k.Event}
	var err error
	switch k.Event {
	case KindMeta:
		var l metaLine
		err = json.Unmarshal(line, &l)
		ev.Meta = l.Meta
	case KindTuples:
		// Numbers inside tuples decode via json.Number so integers stay
		// integers.
		var l tuplesLine
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.UseNumber()
		if err = dec.Decode(&l); err == nil {
			ev.Delivery = ur.ObjectDelivery{Seq: l.Seq, Index: l.Index, Object: l.Object, Buffered: l.Buffered}
			ev.Delivery.Tuples, err = DecodeTuples(l.Tuples)
		}
	case KindUnavailable:
		var l unavailableLine
		err = json.Unmarshal(line, &l)
		ev.Delivery = ur.ObjectDelivery{Seq: l.Seq, Index: l.Index, Object: l.Object, Failure: &l.Failure}
	case KindSkipped:
		var l skippedLine
		err = json.Unmarshal(line, &l)
		ev.Delivery = ur.ObjectDelivery{Seq: l.Seq, Index: l.Index, Object: l.Object, Skipped: l.Reason}
	case KindTrailer:
		var l trailerLine
		err = json.Unmarshal(line, &l)
		ev.Trailer = &l.Trailer
	case KindError:
		var l errorLine
		err = json.Unmarshal(line, &l)
		ev.Error = l.Error
	}
	if err != nil {
		return Event{}, fmt.Errorf("%s: %w", k.Event, err)
	}
	return ev, nil
}

// EncodeTuples renders tuples as JSON arrays of native values (null,
// string, number, bool), positionally aligned with the meta schema.
func EncodeTuples(ts []relation.Tuple) [][]any {
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

// DecodeTuples is EncodeTuples' inverse over rows decoded with
// json.Number. Numeric kinds normalize over the wire: a float with an
// integral value (5.0) encodes as "5" and decodes as an Int — the JSON
// number grammar carries no float/int distinction for integral values.
func DecodeTuples(rows [][]any) ([]relation.Tuple, error) {
	out := make([]relation.Tuple, len(rows))
	for i, row := range rows {
		t := make(relation.Tuple, len(row))
		for j, v := range row {
			switch x := v.(type) {
			case nil:
				t[j] = relation.Null()
			case string:
				t[j] = relation.String(x)
			case bool:
				t[j] = relation.Bool(x)
			case json.Number:
				if n, err := x.Int64(); err == nil && !strings.ContainsAny(x.String(), ".eE") {
					t[j] = relation.Int(n)
				} else {
					f, err := x.Float64()
					if err != nil {
						return nil, fmt.Errorf("bad number %q in tuple", x.String())
					}
					t[j] = relation.Float(f)
				}
			default:
				return nil, fmt.Errorf("unexpected tuple value of type %T", v)
			}
		}
		out[i] = t
	}
	return out, nil
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "..."
}

// The error codes: stable, machine-readable, one per failure class.
const (
	CodeUnauthorized       = "unauthorized"
	CodeQuotaExhausted     = "quota-exhausted"
	CodeTenantSaturated    = "tenant-saturated"
	CodeShedded            = "shedded"
	CodeBodyTooLarge       = "body-too-large"
	CodeResumeInconsistent = "resume-inconsistent"
	CodeBadResume          = "bad-resume"
	CodeBadQuery           = "bad-query"
	CodeDeadline           = "deadline"
	CodeSiteDrift          = "site-drift"
	CodeSiteOutage         = "site-outage"
	CodeSiteAnswer         = "site-answer"
	CodeClientClosed       = "client-closed-request"
	CodeInternal           = "internal"
)

// Status is the HTTP status each code travels under.
var Status = map[string]int{
	CodeUnauthorized:       http.StatusUnauthorized,
	CodeQuotaExhausted:     http.StatusTooManyRequests,
	CodeTenantSaturated:    http.StatusTooManyRequests,
	CodeShedded:            http.StatusTooManyRequests,
	CodeBodyTooLarge:       http.StatusRequestEntityTooLarge,
	CodeResumeInconsistent: http.StatusConflict,
	CodeBadResume:          http.StatusBadRequest,
	CodeBadQuery:           http.StatusBadRequest,
	CodeDeadline:           http.StatusGatewayTimeout,
	CodeSiteDrift:          http.StatusBadGateway,
	CodeSiteOutage:         http.StatusBadGateway,
	CodeSiteAnswer:         http.StatusBadGateway,
	// Client went away; the nginx convention for "nobody is reading this
	// status anyway".
	CodeClientClosed: 499,
	CodeInternal:     http.StatusInternalServerError,
}

// Transient reports whether code names pressure that clears by itself —
// a shed clears as load drains, a saturated tenant when a stream slot
// frees — so the server hints Retry-After on it and the client retries
// it. A spent quota is not transient: its window has to roll.
func Transient(code string) bool {
	return code == CodeShedded || code == CodeTenantSaturated
}
