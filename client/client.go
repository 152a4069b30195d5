// Package client is the typed Go client for the webbase query service
// (internal/server, cmd/webbased): a self-healing consumer of the NDJSON
// stream protocol.
//
// One call — Client.Query — yields a Stream iterator over the same
// ObjectDelivery values an in-process System.QueryStream caller sees, in
// plan order, duplicate-free. The client survives what networks do to
// long streams: a dropped connection, a truncated response, or a full
// server restart mid-answer triggers an automatic reconnect with capped
// exponential backoff and deterministic jitter, and the repeated request
// carries the stream's resume offset and consistency token, so the
// server suppresses the already-delivered prefix and the caller observes
// one uninterrupted, byte-identical answer.
//
// The client also survives the loss of whole replicas. Config.Endpoints
// holds a replica set instead of one URL: attempts pick the healthiest
// endpoint (pick-first with health-ordered rotation over a breaker-style
// per-replica failure memory) and rotate away from a replica on
// transport errors, 5xx answers, shed classes and stalls. A resume the
// surviving replica refuses with 409 resume-inconsistent — its web view
// differs from the dead replica's — restarts the stream cleanly from
// zero on that replica instead of failing, with Stream.Restarted raised
// so the caller knows the delivered prefix is being re-fetched and must
// be discarded. Against a keepalive-enabled server (webbased -keepalive),
// Config.StallTimeout arms a per-event watchdog that kills only true
// stalls: keepalive events reset it, so an idle-but-alive stream is
// never mistaken for a dead one.
//
// When the failure is one a retry cannot change (bad query, quota, a
// query that lost every object to a site outage), iteration stops with a
// typed error, one sentinel per code of internal/wire's table — see
// errors.go.
//
// A stream decodes through readers its Client lends it: a buffer over the
// response body, a gzip reader and a line buffer, about 48 KiB. The stream
// keeps them across its attempts and gives them back when it ends. The
// Client lends them from one internal/lend stack, the lending the server
// and navigation use too, under one rule of its own: returned readers are
// kept for the next stream only while another stream is still open, so an
// idle Client holds none, and a caller that runs one query at a time gets
// a fresh set per query.
package client

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"webbase/internal/lend"
	"webbase/internal/web"
)

// Defaults for the zero Config fields.
const (
	// DefaultMaxAttempts is the per-query connection budget: the initial
	// connect plus reconnects, however they interleave.
	DefaultMaxAttempts = 5
	// DefaultBackoffBase spaces the first reconnect.
	DefaultBackoffBase = 100 * time.Millisecond
	// DefaultBackoffMax caps the exponential backoff.
	DefaultBackoffMax = 3 * time.Second
)

// Config assembles a Client.
type Config struct {
	// BaseURL roots the service, e.g. "http://127.0.0.1:8080". Required
	// unless Endpoints is set.
	BaseURL string
	// Endpoints is the replica set for fleet failover: every entry is a
	// base URL of one webbased replica serving the same web. Attempts
	// pick the healthiest endpoint and rotate on transport errors, 5xx,
	// shed classes and stalls. BaseURL, when also set, is prepended as
	// the first (preferred) endpoint.
	Endpoints []string
	// APIKey authenticates as a tenant (Authorization: Bearer). Empty
	// runs as the anonymous tenant on an open server.
	APIKey string
	// HTTPClient issues the requests. nil means a fresh http.Client with
	// no Timeout — a whole-response timeout would kill long streams; use
	// AttemptTimeout and context deadlines instead.
	HTTPClient *http.Client
	// MaxAttempts is the per-query connection budget (initial connect
	// included); 0 means DefaultMaxAttempts.
	MaxAttempts int
	// BackoffBase is the delay before the second attempt; it doubles per
	// attempt up to BackoffMax. 0 means DefaultBackoffBase.
	BackoffBase time.Duration
	// BackoffMax caps the backoff; 0 means DefaultBackoffMax.
	BackoffMax time.Duration
	// AttemptTimeout bounds each attempt's time to its first event
	// (connect, send, response headers, first line). An attempt that
	// blows it counts against MaxAttempts and retries. 0 disables.
	AttemptTimeout time.Duration
	// StallTimeout bounds the gap between events on a live stream: a
	// stream that goes silent for longer is treated as stalled — the
	// attempt is killed, the endpoint marked failed, and the stream
	// reconnects and resumes elsewhere. Only sound against a server
	// emitting keepalive events (webbased -keepalive) at a shorter
	// interval — without them a legitimately slow object looks like a
	// stall. 0 disables.
	StallTimeout time.Duration

	// sleep is the backoff seam; tests replace it to run instantly.
	sleep func(context.Context, time.Duration) error
	// now is the endpoint-bench clock seam; tests replace it.
	now func() time.Time
}

// Client issues queries against one webbase service — or a fleet of
// replicas serving the same web (Config.Endpoints). Safe for concurrent
// use; each Query returns its own Stream, and all streams share the
// per-replica failure memory. Streams that overlap share decoding
// readers, one stream after another; sequential queries share none (see
// the package doc).
type Client struct {
	endpoints      *endpointSet
	apiKey         string
	hc             *http.Client
	maxAttempts    int
	backoffBase    time.Duration
	backoffMax     time.Duration
	attemptTimeout time.Duration
	stallTimeout   time.Duration
	sleep          func(context.Context, time.Duration) error
	reqSeq         atomic.Int64
	// readers lends each stream its reader set, and keeps a returned set
	// only while another stream is open.
	readers lend.Stack[readers]
}

// New validates cfg and assembles a client.
func New(cfg Config) (*Client, error) {
	var urls []string
	if cfg.BaseURL != "" {
		urls = append(urls, cfg.BaseURL)
	}
	urls = append(urls, cfg.Endpoints...)
	if len(urls) == 0 {
		return nil, fmt.Errorf("client: Config.BaseURL or Config.Endpoints is required")
	}
	for i, raw := range urls {
		u, err := url.Parse(raw)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("client: endpoint %q is not an absolute URL", raw)
		}
		urls[i] = strings.TrimRight(raw, "/")
	}
	c := &Client{
		apiKey:         cfg.APIKey,
		hc:             cfg.HTTPClient,
		maxAttempts:    cfg.MaxAttempts,
		backoffBase:    cfg.BackoffBase,
		backoffMax:     cfg.BackoffMax,
		attemptTimeout: cfg.AttemptTimeout,
		stallTimeout:   cfg.StallTimeout,
		sleep:          cfg.sleep,
		readers:        lend.Stack[readers]{WhileLent: true},
	}
	if c.hc == nil {
		c.hc = &http.Client{}
	}
	if c.maxAttempts <= 0 {
		c.maxAttempts = DefaultMaxAttempts
	}
	if c.backoffBase <= 0 {
		c.backoffBase = DefaultBackoffBase
	}
	if c.backoffMax <= 0 {
		c.backoffMax = DefaultBackoffMax
	}
	if c.sleep == nil {
		c.sleep = sleepCtx
	}
	now := cfg.now
	if now == nil {
		now = time.Now
	}
	// The bench cooldown reuses the backoff scale: a replica's first
	// failure benches it for one backoff base, doubling to the cap.
	c.endpoints = newEndpointSet(urls, c.backoffBase, c.backoffMax, now)
	return c, nil
}

// Query starts one streaming query and returns its Stream with the meta
// event already read (Stream.Meta is valid). Connection-level failures
// and retryable rejections are retried within the attempt budget before
// Query gives up; the returned error is typed (errors.Is against the
// package sentinels). ctx governs the whole stream, not just the call —
// canceling it aborts iteration.
func (c *Client) Query(ctx context.Context, query string) (*Stream, error) {
	s := &Stream{
		c:     c,
		ctx:   ctx,
		query: query,
		rid:   fmt.Sprintf("c-%06d", c.reqSeq.Add(1)),
		rd:    c.readers.Borrow(),
	}
	if err := s.connect(); err != nil {
		s.end()
		return nil, err
	}
	return s, nil
}

// backoffDelay spaces attempt n (n >= 2): base doubled per prior retry,
// capped, with web.Backoff's deterministic jitter keyed by the request ID
// — two clients thundering against a restarted server spread out, yet
// every run of the same client is reproducible.
func (c *Client) backoffDelay(rid string, attempt int) time.Duration {
	return web.Backoff{Base: c.backoffBase, Max: c.backoffMax}.Delay(rid, attempt-1)
}

// sleepCtx waits d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctxErr(ctx)
	case <-t.C:
		return nil
	}
}
