package web

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"webbase/internal/trace"
)

// BreakerConfig tunes the per-host circuit breaker. The zero value is
// usable: every field falls back to the documented default.
type BreakerConfig struct {
	// Window is the number of most recent fetch outcomes considered per
	// host (a ring buffer). Default 8.
	Window int
	// FailureRatio opens the circuit when failures/outcomes in the
	// window reaches this fraction, once MinSamples outcomes have been
	// seen. Default 0.5.
	FailureRatio float64
	// MinSamples is the minimum number of recorded outcomes before the
	// ratio is evaluated, so one unlucky first fetch cannot open the
	// circuit. Default: Window.
	MinSamples int
	// Cooldown is how long an open circuit rejects fetches before
	// letting a single probe through (half-open). Default 30s.
	Cooldown time.Duration
	// Clock supplies the breaker's notion of time. nil means time.Now;
	// tests inject a fake clock to step through state transitions
	// deterministically.
	Clock func() time.Time
	// OnChange, when non-nil, is called (outside all breaker locks) after
	// a circuit trips open or a half-open probe closes it — the durable
	// store's persist-on-transition hook. It must be safe for concurrent
	// calls and must not fetch through this breaker.
	OnChange func(host string, state BreakerState)
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 8
	}
	if c.FailureRatio <= 0 || c.FailureRatio > 1 {
		c.FailureRatio = 0.5
	}
	if c.MinSamples <= 0 {
		c.MinSamples = c.Window
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// BreakerState is the classic three-state circuit: closed (traffic
// flows), open (fail fast), half-open (one probe decides).
type BreakerState uint8

const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String renders the state name.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Breaker is a per-host circuit breaker middleware. Each host gets an
// independent circuit: a sliding window of recent outcomes; when the
// failure ratio crosses the threshold the circuit opens and fetches to
// that host are rejected immediately with an Outage-classified
// ErrCircuitOpen — the fast-fail that keeps one dead site from stalling
// a whole multi-site query on timeouts. After Cooldown a single probe is
// let through (half-open): success closes the circuit, failure re-opens
// it for another cooldown.
//
// The breaker deliberately remembers across queries (it lives for the
// webbase's lifetime, unlike the per-query outage memo): a site that
// killed the last query starts the next one open.
type Breaker struct {
	inner Fetcher
	cfg   BreakerConfig
	stats *Stats

	mu    sync.Mutex
	hosts map[string]*hostCircuit
}

type hostCircuit struct {
	mu       sync.Mutex
	state    BreakerState
	outcomes []bool // ring of recent outcomes; true = failure
	next     int
	filled   int
	failures int
	openedAt time.Time
	probing  bool  // a half-open probe is in flight
	opens    int64 // lifetime count of transitions to open
}

// NewBreaker wraps inner with a per-host circuit breaker. Rejections are
// counted in stats.BreakerRejects (stats may be nil).
func NewBreaker(inner Fetcher, cfg BreakerConfig, stats *Stats) *Breaker {
	return &Breaker{inner: inner, cfg: cfg.withDefaults(), stats: stats,
		hosts: make(map[string]*hostCircuit)}
}

// WithBreaker is NewBreaker as a plain middleware constructor.
func WithBreaker(inner Fetcher, cfg BreakerConfig, stats *Stats) Fetcher {
	return NewBreaker(inner, cfg, stats)
}

func (b *Breaker) host(host string) *hostCircuit {
	b.mu.Lock()
	defer b.mu.Unlock()
	hc := b.hosts[host]
	if hc == nil {
		hc = &hostCircuit{}
		b.hosts[host] = hc
	}
	return hc
}

// State reports the circuit state for a host (closed for hosts never
// fetched).
func (b *Breaker) State(host string) BreakerState {
	hc := b.host(host)
	hc.mu.Lock()
	defer hc.mu.Unlock()
	// Surface open→half-open lazily so tests and dashboards see the
	// state a fetch arriving now would see.
	if hc.state == BreakerOpen && b.cfg.Clock().Sub(hc.openedAt) >= b.cfg.Cooldown {
		return BreakerHalfOpen
	}
	return hc.state
}

// Opens reports how many times the host's circuit has transitioned to
// open over the breaker's lifetime.
func (b *Breaker) Opens(host string) int64 {
	hc := b.host(host)
	hc.mu.Lock()
	defer hc.mu.Unlock()
	return hc.opens
}

// Fetch implements Fetcher.
func (b *Breaker) Fetch(req *Request) (*Response, error) {
	host := hostOf(req.URL)
	hc := b.host(host)
	if !hc.allow(b.cfg.Clock(), b.cfg) {
		statsFor(req.Context(), b.stats).add(breakerRejects, 1)
		trace.FromContext(req.Context()).Label("outcome", "breaker-open")
		return nil, MarkOutage(&HostError{Host: host,
			Err: fmt.Errorf("%w (cooling down)", ErrCircuitOpen)})
	}
	resp, err := b.inner.Fetch(req)
	failed := err != nil &&
		!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
	if changed, state := hc.observe(failed, b.cfg.Clock(), b.cfg); changed && b.cfg.OnChange != nil {
		b.cfg.OnChange(host, state)
	}
	return resp, err
}

// BreakerSnapshot is the durable view of one open circuit: enough to
// restore fail-fast behavior after a restart. The outcome window is
// transient by design — a restored circuit re-earns closure through the
// normal half-open probe.
type BreakerSnapshot struct {
	State    string    `json:"state"`
	OpenedAt time.Time `json:"openedAt"`
	Opens    int64     `json:"opens"`
}

// Snapshot captures every currently open circuit (half-open and closed
// circuits are omitted: closed is the cold default, and a half-open
// circuit restored as open simply re-probes after the remaining
// cooldown).
func (b *Breaker) Snapshot() map[string]BreakerSnapshot {
	b.mu.Lock()
	hosts := make(map[string]*hostCircuit, len(b.hosts))
	for h, hc := range b.hosts {
		hosts[h] = hc
	}
	b.mu.Unlock()
	out := make(map[string]BreakerSnapshot)
	for h, hc := range hosts {
		hc.mu.Lock()
		if hc.state == BreakerOpen {
			out[h] = BreakerSnapshot{State: BreakerOpen.String(), OpenedAt: hc.openedAt, Opens: hc.opens}
		}
		hc.mu.Unlock()
	}
	return out
}

// Restore pre-populates circuits from a persisted snapshot, before the
// breaker takes traffic. Only open circuits are restored; anything else
// in the snapshot is ignored (cold default). The original openedAt is
// kept, so a circuit whose cooldown elapsed while the process was down
// goes straight to half-open on the first fetch — restored state never
// blocks recovery longer than live state would have.
func (b *Breaker) Restore(snap map[string]BreakerSnapshot) {
	for host, s := range snap {
		if s.State != BreakerOpen.String() {
			continue
		}
		hc := b.host(host)
		hc.mu.Lock()
		if hc.state == BreakerClosed && hc.filled == 0 {
			hc.state = BreakerOpen
			hc.openedAt = s.OpenedAt
			hc.opens = s.Opens
		}
		hc.mu.Unlock()
	}
}

// allow decides whether a fetch may proceed and performs the
// open→half-open transition when the cooldown has elapsed.
func (hc *hostCircuit) allow(now time.Time, cfg BreakerConfig) bool {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	switch hc.state {
	case BreakerOpen:
		if now.Sub(hc.openedAt) < cfg.Cooldown {
			return false
		}
		hc.state = BreakerHalfOpen
		hc.probing = true
		return true
	case BreakerHalfOpen:
		if hc.probing {
			return false // one probe at a time
		}
		hc.probing = true
		return true
	default:
		return true
	}
}

// observe records a fetch outcome and performs closed→open (threshold)
// and half-open→closed/open (probe verdict) transitions, reporting
// whether the circuit changed state (so the caller can fire OnChange
// outside the lock). Outcomes from fetches admitted before a trip land
// while the circuit is open and are ignored — they already counted
// toward opening it.
func (hc *hostCircuit) observe(failed bool, now time.Time, cfg BreakerConfig) (bool, BreakerState) {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	switch hc.state {
	case BreakerClosed:
		hc.record(failed, cfg.Window)
		if hc.filled >= cfg.MinSamples &&
			float64(hc.failures) >= cfg.FailureRatio*float64(hc.filled) {
			hc.trip(now)
			return true, BreakerOpen
		}
	case BreakerHalfOpen:
		hc.probing = false
		if failed {
			hc.trip(now)
			return true, BreakerOpen
		}
		hc.state = BreakerClosed
		hc.reset()
		return true, BreakerClosed
	}
	return false, hc.state
}

func (hc *hostCircuit) trip(now time.Time) {
	hc.state = BreakerOpen
	hc.openedAt = now
	hc.opens++
	hc.probing = false
	hc.reset()
}

func (hc *hostCircuit) reset() {
	hc.outcomes = nil
	hc.next, hc.filled, hc.failures = 0, 0, 0
}

func (hc *hostCircuit) record(failed bool, window int) {
	if len(hc.outcomes) != window {
		hc.outcomes = make([]bool, window)
		hc.next, hc.filled, hc.failures = 0, 0, 0
	}
	if hc.filled == window {
		if hc.outcomes[hc.next] {
			hc.failures--
		}
	} else {
		hc.filled++
	}
	hc.outcomes[hc.next] = failed
	if failed {
		hc.failures++
	}
	hc.next = (hc.next + 1) % window
}
