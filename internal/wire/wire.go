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
	"encoding/json"
	"fmt"
	"net/http"

	"webbase/internal/core"
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
