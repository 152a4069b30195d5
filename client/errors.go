package client

import (
	"context"
	"errors"
	"fmt"
	"time"

	"webbase/internal/wire"
)

// The client-side error taxonomy is internal/wire's code table seen from
// the caller: every error envelope and terminal error event decodes to an
// *APIError whose Code is one of wire's stable machine-readable codes,
// and each code matches a sentinel below under errors.Is — so callers
// branch on classes (`errors.Is(err, client.ErrQuotaExhausted)`) without
// string comparisons, exactly as they would against the in-process
// taxonomy.

// Sentinels, one per server error code. Match with errors.Is.
var (
	// ErrUnauthorized: 401 unauthorized — the API key names no tenant.
	ErrUnauthorized = errors.New("client: unauthorized")
	// ErrQuotaExhausted: 429 quota-exhausted — the tenant's fixed-window
	// quota is spent. Not retried: the window must roll first.
	ErrQuotaExhausted = errors.New("client: tenant quota exhausted")
	// ErrTenantSaturated: 429 tenant-saturated — the tenant's concurrent
	// stream limit is full. Retried: a slot frees when a stream ends.
	ErrTenantSaturated = errors.New("client: tenant saturated")
	// ErrShedded: 429 shedded — the admission gate shed the query under
	// overload. Retried with backoff.
	ErrShedded = errors.New("client: query shed by admission gate")
	// ErrBadQuery: 400 bad-query — the query text failed to parse or plan.
	ErrBadQuery = errors.New("client: bad query")
	// ErrBadResume: 400 bad-resume — malformed resume parameters.
	ErrBadResume = errors.New("client: bad resume parameters")
	// ErrResumeInconsistent: 409 resume-inconsistent — the web view
	// changed since the stream began (cache clear, map repair); the
	// delivered prefix cannot be extended soundly. Restart the query.
	ErrResumeInconsistent = errors.New("client: resume inconsistent with current web state")
	// ErrBodyTooLarge: 413 body-too-large.
	ErrBodyTooLarge = errors.New("client: request body too large")
	// ErrDeadline: 504 deadline — the server-side deadline budget ran out.
	ErrDeadline = errors.New("client: server deadline budget exhausted")
	// ErrSiteOutage: 502 site-outage — every maximal object of the query
	// was lost, the first to a dead site.
	ErrSiteOutage = errors.New("client: site outage")
	// ErrSiteDrift: 502 site-drift — every maximal object of the query was
	// lost, the first to a redesigned site.
	ErrSiteDrift = errors.New("client: site drift")
	// ErrSiteAnswer: 502 site-answer — a site answered unsuccessfully.
	ErrSiteAnswer = errors.New("client: site answered with an error")
	// ErrInternal: 500 internal.
	ErrInternal = errors.New("client: internal server error")

	// ErrRetriesExhausted wraps the last failure after the per-query retry
	// budget (Config.MaxAttempts) is spent.
	ErrRetriesExhausted = errors.New("client: retry budget exhausted")
	// ErrProtocol reports a malformed stream (undecodable event, missing
	// meta). Never retried — the server is speaking a different protocol.
	ErrProtocol = errors.New("client: protocol error")
)

// codeSentinel maps a server error code to its sentinel.
var codeSentinel = map[string]error{
	wire.CodeUnauthorized:       ErrUnauthorized,
	wire.CodeQuotaExhausted:     ErrQuotaExhausted,
	wire.CodeTenantSaturated:    ErrTenantSaturated,
	wire.CodeShedded:            ErrShedded,
	wire.CodeBadQuery:           ErrBadQuery,
	wire.CodeBadResume:          ErrBadResume,
	wire.CodeResumeInconsistent: ErrResumeInconsistent,
	wire.CodeBodyTooLarge:       ErrBodyTooLarge,
	wire.CodeDeadline:           ErrDeadline,
	wire.CodeSiteOutage:         ErrSiteOutage,
	wire.CodeSiteDrift:          ErrSiteDrift,
	wire.CodeSiteAnswer:         ErrSiteAnswer,
	wire.CodeInternal:           ErrInternal,
}

// APIError is a typed server failure: an error envelope (pre-stream) or
// terminal error event (mid-stream) decoded off the wire.
type APIError struct {
	// Code is the server's stable machine-readable code ("bad-query",
	// "resume-inconsistent", ...).
	Code string
	// Status is the HTTP status the server assigned the failure. For a
	// mid-stream error event the response was already 200; Status carries
	// the status an envelope would have used.
	Status int
	// Message is the server's rendered cause.
	Message string
	// RequestID identifies the request for log correlation.
	RequestID string
	// RetryAfter is the server's Retry-After hint (whole seconds, from
	// the envelope's response headers), zero when absent. The client
	// honors it on retryable 429s, capped by the backoff ceiling.
	RetryAfter time.Duration
}

func apiError(b wire.ErrorBody) *APIError {
	return &APIError{Code: b.Code, Status: b.Status, Message: b.Message, RequestID: b.RequestID}
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: server error %s (status %d, request %s): %s",
		e.Code, e.Status, e.RequestID, e.Message)
}

// Is matches the sentinel assigned to the error's code, so
// errors.Is(err, client.ErrBadQuery) works through any wrapping.
func (e *APIError) Is(target error) bool { return codeSentinel[e.Code] == target }

// retryable classifies a failure for the reconnect loop: true for
// transport-level failures (dropped connections, truncated bodies, dead
// servers mid-restart) and for the codes wire calls transient — pressure
// a backed-off reattempt can outwait; false for everything whose outcome
// a retry cannot change (quota exhaustion, query errors, consistency
// refusals, site failures). With a multi-replica endpoint set (failover
// true), 5xx answers are also retryable: the failure may be local to the
// replica that produced it — a restarting process, a replica whose
// breakers are open — and the rotation will put the next attempt on a
// different replica. Context errors are judged by the caller against its
// own context — a canceled attempt watchdog looks like context.Canceled
// but is retryable, so the stream checks its parent context before
// consulting this.
func retryable(err error, failover bool) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		return wire.Transient(ae.Code) || failover && ae.Status >= 500
	}
	return !errors.Is(err, ErrProtocol)
}

// endpointFault reports whether a failure indicts the endpoint that
// produced it — the classes that feed the per-replica failure memory:
// transport errors (including stall kills), 5xx answers, and shed
// classes. 4xx answers say nothing about the replica's health, and a 409
// consistency refusal is a correct answer, not a fault.
func endpointFault(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status >= 500 || wire.Transient(ae.Code)
	}
	return true // a protocol error, or transport-level: dropped connection, truncated body, stall
}

// retryAfterOf extracts a failure's Retry-After hint, zero when absent.
func retryAfterOf(err error) time.Duration {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.RetryAfter
	}
	return 0
}

// ctxErr normalizes an abort caused by the caller's context.
func ctxErr(ctx context.Context) error {
	if err := context.Cause(ctx); err != nil {
		return err
	}
	return ctx.Err()
}
