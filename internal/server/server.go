// Package server exposes a webbase as a networked query service: the
// layered architecture's external schema, drivable over HTTP.
//
// POST /query evaluates a universal-relation query and streams the
// answer incrementally as NDJSON — one event per maximal object, shipped
// the moment the object completes, then a trailer carrying QueryStats
// and the degradation report. The union-of-maximal-objects semantics is
// what makes this sound: each object's contribution is final when it
// finishes, so partial answers are well-defined, and the plan-order gate
// in the UR layer keeps the stream byte-identical whatever the worker
// count.
//
// The format — line shapes, header names, request and error bodies, the
// error codes and their statuses — is internal/wire's; this package keeps
// the policy. Failures map the error taxonomy onto wire's codes: a shed
// query (admission gate or tenant quota) is 429, an exhausted deadline
// budget is 504, a malformed or unplannable query is 400, and a
// strict-mode site outage or drift is 502 — each as a JSON error
// envelope when nothing has streamed yet, or a terminal error event when
// the failure struck mid-stream.
//
// Tenancy rides on the existing admission classes: each API key names a
// tenant with an interactive or batch class and a fixed-window quota,
// and both served and shed queries are accounted per tenant in /metrics.
// GET /healthz reports the self-healing tracker's quarantine state.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"webbase/internal/core"
	"webbase/internal/ur"
	"webbase/internal/web"
	"webbase/internal/wire"
)

// DefaultMaxBodyBytes bounds POST /query bodies when Config.MaxBodyBytes
// is zero. Queries are one SELECT line; a megabyte is generous.
const DefaultMaxBodyBytes = 1 << 20

// Config assembles a Server.
type Config struct {
	// System is the webbase to serve. Required.
	System *core.Webbase
	// Tenants are the API keys admitted to POST /query. Empty means the
	// server is open: every request runs as the anonymous interactive
	// tenant with no quota.
	Tenants []Tenant
	// Logger receives one structured line per request. nil discards.
	Logger *log.Logger
	// Clock drives tenant quota windows; nil means time.Now. Tests
	// inject a fake clock for exact shed accounting.
	Clock func() time.Time
	// MaxBodyBytes bounds the request body; 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// KeepaliveInterval, when positive, emits a seq-less keepalive event
	// on every committed stream each time the interval elapses between
	// real events, so clients can arm a stall watchdog that idle-but-
	// alive streams never trip. Keepalives carry no sequence number and
	// are invisible to resume accounting. Zero (the default) disables
	// them entirely: every stream's bytes are identical to a server
	// without the feature.
	KeepaliveInterval time.Duration
}

// Server handles the query service's three routes. Build one with New
// and mount Handler on any http.Server.
type Server struct {
	sys       *core.Webbase
	tenants   *tenantSet
	logger    *log.Logger
	maxBody   int64
	keepalive time.Duration
	reqSeq    atomic.Int64
}

// New validates cfg and assembles the server.
func New(cfg Config) (*Server, error) {
	if cfg.System == nil {
		return nil, fmt.Errorf("server: Config.System is required")
	}
	tenants, err := newTenantSet(cfg.Tenants, cfg.Clock)
	if err != nil {
		return nil, err
	}
	logger := cfg.Logger
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	return &Server{sys: cfg.System, tenants: tenants, logger: logger, maxBody: maxBody,
		keepalive: cfg.KeepaliveInterval}, nil
}

// Handler returns the route mux: POST /query, GET /metrics, GET /healthz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// handleQuery is the streaming query endpoint. The response stays
// uncommitted until the first object delivery, so everything that can
// fail up front — auth, quota, body, parse, admission — still gets an
// accurate status code; after the stream starts, failures become a
// terminal error event.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	rid := r.Header.Get(wire.HeaderRequestID)
	if rid == "" {
		rid = fmt.Sprintf("r-%06d", s.reqSeq.Add(1))
	}

	tenant, release, err := s.tenants.admit(apiKey(r))
	if err != nil {
		s.fail(w, rid, tenant, err)
		return
	}
	// The concurrency slot is held for the whole request, streaming
	// included — a tenant's limit bounds open streams, not just admissions.
	defer release()
	s.count("server_queries_total", tenant.Name)

	qr, err := readQueryRequest(r.Body, s.maxBody)
	if err != nil {
		s.fail(w, rid, tenant, err)
		return
	}
	text := qr.Query
	q, err := ur.ParseQuery(s.sys.UR, text)
	if err != nil {
		s.fail(w, rid, tenant, badQuery(err))
		return
	}
	resume, err := parseResume(r, qr)
	if err != nil {
		s.fail(w, rid, tenant, err)
		return
	}

	// The consistency token fingerprints the web view the stream's bytes
	// are a function of. A resume presenting a stale token would stitch
	// answers from two different webs — refuse it rather than splice.
	token := s.sys.ConsistencyToken()
	resumeFrom := -1
	if resume != nil {
		if resume.token != token {
			s.fail(w, rid, tenant, fmt.Errorf("%w: stream was %s, web is now %s",
				errResumeInconsistent, resume.token, token))
			return
		}
		resumeFrom = resume.lastIndex
	}

	ctx := core.WithQueryClass(r.Context(), tenant.Class)
	sw := newStreamWriter(w, rid, q.String(), q.Output, token, resumeFrom, gzipAccepted(r))
	// The ticker (if configured) is the one writer outside the gate's
	// serialization; the terminal-event writers stop it themselves, and
	// the defer covers the pre-stream envelope paths below.
	sw.startKeepalive(s.keepalive)
	defer sw.stopKeepalive()
	res, qs, err := s.sys.QueryStream(ctx, q, sw.writeDelivery)
	if sw.broken != nil {
		err = sw.broken // the stream already ended with it, where the delivery would have been
	}
	if err != nil {
		body := errorBody(rid, err)
		s.account(tenant.Name, body.Status)
		if sw.started {
			sw.writeErrorEvent(body)
		} else {
			writeEnvelope(w, body)
		}
		s.logger.Printf("req=%s tenant=%s status=%d code=%s query=%q",
			rid, tenant.Name, body.Status, body.Code, text)
		return
	}
	sw.writeTrailer(res, qs)
	if resumeFrom >= 0 {
		// Resume accounting: the query ran again end to end, but the
		// already-delivered prefix was acked, not re-sent.
		s.count("server_resumes_total", tenant.Name)
		s.sys.Metrics().Counter("server_resume_skipped_total").Add(int64(sw.skipped))
	}
	s.count("server_queries_served_total", tenant.Name)
	s.logger.Printf("req=%s tenant=%s status=200 tuples=%d objects=%d elapsed=%s query=%q",
		rid, tenant.Name, res.Relation.Len(), len(res.Plan.Objects), qs.Elapsed, text)
}

// fail writes a pre-stream error envelope and accounts it.
func (s *Server) fail(w http.ResponseWriter, rid string, tenant Tenant, err error) {
	body := errorBody(rid, err)
	s.account(tenant.Name, body.Status)
	writeEnvelope(w, body)
	s.logger.Printf("req=%s tenant=%s status=%d code=%s", rid, tenantLabel(tenant), body.Status, body.Code)
}

// handleMetrics renders the webbase registry — every in-process counter,
// gauge and histogram plus the server's per-tenant accounting — in the
// registry's sorted text format. Compressed when the client accepts gzip;
// the decompressed bytes are identical either way.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	body := []byte(s.sys.Metrics().Snapshot().String())
	if gzipAccepted(r) {
		writeGzipped(w, http.StatusOK, "text/plain; charset=utf-8", body)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(body)
}

// healthzResponse is the GET /healthz body.
type healthzResponse struct {
	Status      string   `json:"status"` // "ok" or "degraded"
	Quarantined []string `json:"quarantined"`
}

// handleHealthz reports the self-healing tracker's view: ok unless some
// site is drift-quarantined. The server itself answering is the
// liveness signal, so the status code stays 200 either way.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	hz := healthzResponse{Status: "ok", Quarantined: []string{}}
	for host := range s.sys.SiteHealth().Quarantined() {
		hz.Quarantined = append(hz.Quarantined, host)
	}
	sort.Strings(hz.Quarantined)
	if len(hz.Quarantined) > 0 {
		hz.Status = "degraded"
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(hz)
}

// count bumps a counter twice: the overall total and the per-tenant
// labeled series.
func (s *Server) count(name, tenant string) {
	m := s.sys.Metrics()
	m.Counter(name).Add(1)
	if tenant != "" {
		m.Counter(name + `{tenant="` + tenant + `"}`).Add(1)
	}
}

// account attributes one failed request to its tenant: 429s are sheds
// (quota or admission gate — the query never ran), everything else a
// failure.
func (s *Server) account(tenant string, status int) {
	if status == http.StatusTooManyRequests {
		s.count("server_queries_shed_total", tenant)
	} else {
		s.count("server_queries_failed_total", tenant)
	}
}

// codedError is a failure the server raises itself and so knows the code
// of where it raises it; errorBody has only foreign errors to classify.
type codedError struct {
	code string
	err  error
}

func (e *codedError) Error() string { return e.err.Error() }
func (e *codedError) Unwrap() error { return e.err }

func coded(code, msg string) error { return &codedError{code, errors.New(msg)} }
func badQuery(err error) error     { return &codedError{wire.CodeBadQuery, err} }
func badResume(err error) error    { return &codedError{wire.CodeBadResume, err} }

// errBodyTooLarge is returned when the request body exceeds the bound.
var errBodyTooLarge = coded(wire.CodeBodyTooLarge, "server: request body too large")

// errResumeInconsistent refuses a resume whose token no longer matches
// the current web view (a cache clear or a map swap happened since the
// stream began). Re-running would not reproduce the delivered prefix, so
// splicing is unsound; the client must restart the query from scratch.
var errResumeInconsistent = coded(wire.CodeResumeInconsistent, "server: resume token does not match the current web state")

// errorBody names the wire code for a failure; the status rides along
// from wire's table. Order matters — a strict-mode budget error is
// classified both budget-exhausted and outage, and the deadline (the
// caller's economics) must win over the outage (the site's fault).
func errorBody(rid string, err error) wire.ErrorBody {
	code := wire.CodeInternal
	var ce *codedError
	switch {
	case errors.As(err, &ce):
		code = ce.code
	case errors.Is(err, core.ErrShedded):
		code = wire.CodeShedded
	case errors.Is(err, ur.ErrBadQuery),
		errors.Is(err, ur.ErrUnknownAttribute),
		errors.Is(err, ur.ErrNotCoverable):
		code = wire.CodeBadQuery
	case web.IsBudgetExhausted(err), errors.Is(err, context.DeadlineExceeded):
		code = wire.CodeDeadline
	case web.IsDrift(err):
		code = wire.CodeSiteDrift
	case web.IsOutage(err):
		code = wire.CodeSiteOutage
	case web.IsSiteAnswer(err):
		code = wire.CodeSiteAnswer
	case errors.Is(err, context.Canceled):
		code = wire.CodeClientClosed
	}
	return wire.ErrorBody{Code: code, Status: wire.Status[code], Message: err.Error(), RequestID: rid}
}

func writeEnvelope(w http.ResponseWriter, body wire.ErrorBody) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(wire.HeaderRequestID, body.RequestID)
	if wire.Transient(body.Code) {
		// Hint clients to pause a beat before retrying.
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(body.Status)
	json.NewEncoder(w).Encode(wire.Envelope{Error: body})
}

// readQueryRequest reads the body in either of its forms, told apart by
// the first non-space byte: the JSON wire.QueryRequest, or the raw query
// text itself, which is a request with nothing but Query set.
func readQueryRequest(body io.Reader, maxBody int64) (wire.QueryRequest, error) {
	var qr wire.QueryRequest
	raw, err := io.ReadAll(io.LimitReader(body, maxBody+1))
	if err != nil {
		return qr, badQuery(fmt.Errorf("server: reading request body: %w", err))
	}
	if int64(len(raw)) > maxBody {
		return qr, errBodyTooLarge
	}
	if text := strings.TrimSpace(string(raw)); !strings.HasPrefix(text, "{") {
		qr.Query = text
	} else if err := json.Unmarshal([]byte(text), &qr); err != nil {
		return qr, badQuery(fmt.Errorf("server: decoding JSON query body: %w", err))
	}
	if qr.Query == "" {
		return qr, badQuery(errors.New("server: empty query"))
	}
	return qr, nil
}

// resumeSpec is a validated resume request: the last event index the
// client received and the stream's original consistency token.
type resumeSpec struct {
	lastIndex int
	token     string
}

// parseResume reads the resume parameters from the headers (which win)
// or the request body. No parameters at all means a fresh stream (nil,
// nil); a half-specified or malformed resume is a 400 bad-resume.
func parseResume(r *http.Request, qr wire.QueryRequest) (*resumeSpec, error) {
	lastIndex, token := qr.LastEventIndex, qr.ResumeToken
	if h := r.Header.Get(wire.HeaderLastEventIndex); h != "" {
		n, err := strconv.Atoi(h)
		if err != nil || n < 0 {
			return nil, badResume(fmt.Errorf("server: %s %q is not a non-negative integer", wire.HeaderLastEventIndex, h))
		}
		lastIndex = &n
	} else if lastIndex != nil && *lastIndex < 0 {
		return nil, badResume(fmt.Errorf("server: last_event_index %d is negative", *lastIndex))
	}
	if h := r.Header.Get(wire.HeaderResumeToken); h != "" {
		token = h
	}
	switch {
	case lastIndex == nil && token == "":
		return nil, nil
	case lastIndex == nil:
		return nil, badResume(errors.New("server: resume token without a last event index"))
	case token == "":
		return nil, badResume(errors.New("server: resume requires the stream's resume_token"))
	}
	return &resumeSpec{lastIndex: *lastIndex, token: token}, nil
}

// tenantLabel names a tenant in log lines, tolerating the zero Tenant an
// unauthorized request resolves to.
func tenantLabel(t Tenant) string {
	if t.Name == "" {
		return "-"
	}
	return t.Name
}
