// Package health tracks per-site health for the self-healing subsystem:
// it turns query-time drift reports into a quarantine decision and drives
// the background repair worker that re-maps a drifted site.
//
// Each site moves through a small state machine:
//
//	healthy → suspect → quarantined ⇄ repairing → healthy
//
// A drift report moves a healthy site to suspect; once the confirmation
// threshold is reached the site is quarantined (one bad page never
// triggers a remap) and a single background repair worker is launched for
// it. The worker retries with exponential backoff up to a bounded number
// of attempts; on success the site returns to healthy, on exhaustion it
// stays quarantined with no further workers — a truly dead site cannot
// remap-loop. While a site is quarantined or repairing, further drift
// reports are no-ops, which is what makes the repair single-flighted.
package health

import (
	"sync"
	"time"

	"webbase/internal/trace"
	"webbase/internal/web"
)

// State is a site's position in the health state machine.
type State uint8

// Health states.
const (
	// Healthy: no unconfirmed drift evidence.
	Healthy State = iota
	// Suspect: drift reported, below the confirmation threshold.
	Suspect
	// Quarantined: drift confirmed; queries short-circuit the site. Also
	// the terminal state once repair attempts are exhausted.
	Quarantined
	// Repairing: a background worker is currently rebuilding the site's
	// navigation maps. Queries still treat the site as quarantined.
	Repairing
)

// String renders the state name.
func (s State) String() string {
	switch s {
	case Suspect:
		return "suspect"
	case Quarantined:
		return "quarantined"
	case Repairing:
		return "repairing"
	default:
		return "healthy"
	}
}

// Policy is the self-healing knobs: when drift quarantines a site and how
// its repair is retried.
type Policy struct {
	// Threshold is how many drift reports confirm a redesign and
	// quarantine the site. <= 0 means the default of 2 — one bad page
	// never triggers a remap.
	Threshold int
	// MaxAttempts bounds the repair attempts per quarantine episode; a
	// site that cannot be repaired stays quarantined instead of
	// remap-looping. <= 0 means the default of 3.
	MaxAttempts int
	// Backoff is the wait before the second repair attempt; it doubles
	// per attempt. <= 0 means the default of 100ms.
	Backoff time.Duration
	// RecoveryBackoff, when > 0, enables slow background recovery probes
	// for repair-exhausted quarantined sites: after this initial wait
	// (doubling per failed probe, capped at 64×) the site gets one more
	// repair attempt, so a permanently-quarantined-then-fixed site
	// eventually heals without a restart. <= 0 sends no probes: a
	// repair-exhausted site stays quarantined.
	RecoveryBackoff time.Duration
}

// The tracker's metrics.
var (
	remapsStarted = trace.NewCounter("remaps_started_total",
		"Background repairs launched for quarantined sites.")
	remapsSucceeded = trace.NewCounter("remaps_succeeded_total",
		"Repairs and recovery probes that healed their site.")
	recoveryProbes = trace.NewCounter("recovery_probes_total",
		"Slow recovery probes of repair-exhausted quarantined sites.")
	sitesQuarantined = trace.NewGauge("sites_quarantined",
		"Sites quarantined or under repair for drift.")
)

// Config wires a Tracker: its Policy and the hooks it calls.
type Config struct {
	Policy
	// Repair rebuilds the site's navigation maps and hot-swaps them in.
	// nil disables background repair: sites still quarantine, but stay
	// quarantined until an operator intervenes.
	Repair func(host string) error
	// Sleep waits between repair attempts; tests inject an instant sleep.
	// nil uses time.Sleep.
	Sleep func(d time.Duration)
	// Metrics receives the tracker's metrics: remaps started and
	// succeeded, recovery probes and the quarantined-site gauge. nil
	// records nothing.
	Metrics *trace.Registry
	// OnChange, when non-nil, is called (outside the tracker's lock) after
	// every state transition — the durable store's persist hook. It must
	// be safe for concurrent calls and must not report drift.
	OnChange func()
}

// Tracker is the per-site health state machine. A nil *Tracker is a valid
// no-op tracker (sites are always healthy), so callers need no guards
// when self-healing is not configured.
type Tracker struct {
	cfg Config

	mu    sync.Mutex
	sites map[string]*site
	wg    sync.WaitGroup

	stop      chan struct{} // closed by Close; ends recovery probe loops
	closeOnce sync.Once
}

type site struct {
	state      State
	drifts     int  // drift reports since last healthy
	attempts   int  // repair attempts spent in the current quarantine
	exhausted  bool // attempts bound hit: no more workers for this site
	recovering bool // a slow recovery probe loop is running for this site
}

// New returns a tracker with the given configuration.
func New(cfg Config) *Tracker {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 2
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 100 * time.Millisecond
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	return &Tracker{cfg: cfg, sites: make(map[string]*site), stop: make(chan struct{})}
}

// changed fires the persist hook; call without holding t.mu.
func (t *Tracker) changed() {
	if t.cfg.OnChange != nil {
		t.cfg.OnChange()
	}
}

// stopped reports whether Close has been called.
func (t *Tracker) stopped() bool {
	select {
	case <-t.stop:
		return true
	default:
		return false
	}
}

// Close ends the tracker's slow recovery probe loops. Repair workers
// launched by quarantine finish their bounded attempts on their own
// (Wait); recovery loops are unbounded by design, so shutdown must cut
// them. Safe to call more than once; a nil tracker is a no-op.
func (t *Tracker) Close() {
	if t == nil {
		return
	}
	t.closeOnce.Do(func() { close(t.stop) })
}

// ReportDrift records one query-time drift observation against the host
// and returns the host's resulting state. Crossing the confirmation
// threshold quarantines the site and launches its (single) background
// repair worker.
func (t *Tracker) ReportDrift(host string) State {
	if t == nil || host == "" {
		return Healthy
	}
	t.mu.Lock()
	s := t.sites[host]
	if s == nil {
		s = &site{}
		t.sites[host] = s
	}
	switch s.state {
	case Quarantined, Repairing:
		// Already confirmed; the worker (or its exhaustion) owns the site.
		st := s.state
		t.mu.Unlock()
		return st
	case Healthy:
		s.state = Suspect
	}
	s.drifts++
	if s.drifts < t.cfg.Threshold {
		t.mu.Unlock()
		t.changed()
		return Suspect
	}
	s.state = Quarantined
	launch := t.cfg.Repair != nil && !s.exhausted
	if launch {
		t.wg.Add(1)
	}
	t.gaugeLocked()
	t.mu.Unlock()
	t.changed()
	if launch {
		go t.repairLoop(host)
	}
	return Quarantined
}

// repairLoop is the single-flight background worker for one quarantined
// site: bounded attempts with exponential backoff, then either a return
// to healthy or terminal exhaustion.
func (t *Tracker) repairLoop(host string) {
	defer t.wg.Done()
	for {
		t.mu.Lock()
		s := t.sites[host]
		if s.attempts >= t.cfg.MaxAttempts {
			s.exhausted = true
			s.state = Quarantined
			t.gaugeLocked()
			t.launchRecoveryLocked(host, s)
			t.mu.Unlock()
			t.changed()
			return
		}
		s.attempts++
		attempt := s.attempts
		last := attempt >= t.cfg.MaxAttempts
		if t.attemptLocked(host, s, remapsStarted, last) || last {
			return
		}
		t.cfg.Sleep(web.Backoff{Base: t.cfg.Backoff}.Nominal(attempt))
	}
}

// attemptLocked is one repair of a site, shared by the fast remap loop
// and the slow recovery probes: mark repairing → Repair → reset to healthy
// (the only place a site is reset) or re-quarantine, a failed last attempt
// also exhausting the site and handing it to the recovery loop. It is
// entered with t.mu held and returns with it released, reporting whether
// the site healed; metric counts the attempt.
func (t *Tracker) attemptLocked(host string, s *site, metric *trace.Counter, last bool) bool {
	s.state = Repairing
	t.mu.Unlock()
	t.changed()

	metric.Add(t.cfg.Metrics, 1)
	err := t.cfg.Repair(host)

	t.mu.Lock()
	if err == nil {
		*s = site{state: Healthy}
	} else {
		s.state = Quarantined
		if last {
			s.exhausted = true
			t.launchRecoveryLocked(host, s)
		}
	}
	t.gaugeLocked()
	t.mu.Unlock()
	if err == nil {
		remapsSucceeded.Add(t.cfg.Metrics, 1)
	}
	t.changed()
	return err == nil
}

// launchRecoveryLocked starts the slow recovery probe loop for an
// exhausted site, if enabled and not already running. t.mu must be held.
// Recovery loops are deliberately not part of t.wg: they run for as long
// as the site stays dead, and Wait — the tests' quiescence point — must
// not block on them. Close ends them.
func (t *Tracker) launchRecoveryLocked(host string, s *site) {
	if t.cfg.RecoveryBackoff <= 0 || t.cfg.Repair == nil || s.recovering {
		return
	}
	s.recovering = true
	go t.recoverLoop(host)
}

// recoverLoop is the satellite to repair exhaustion: a clock-driven
// background re-probe with long, doubling backoff. A probe is one more
// repair attempt — success returns the site to healthy exactly as a
// normal repair would; failure re-quarantines and waits longer. Probes do
// not count against MaxAttempts (the exhaustion bound is about the fast
// remap loop, not about eventual recovery).
func (t *Tracker) recoverLoop(host string) {
	backoff := web.Backoff{Base: t.cfg.RecoveryBackoff, Max: 64 * t.cfg.RecoveryBackoff}
	for probe := 1; ; probe++ {
		t.cfg.Sleep(backoff.Nominal(probe))
		if t.stopped() {
			return
		}
		t.mu.Lock()
		s := t.sites[host]
		if s == nil || s.state != Quarantined || !s.exhausted {
			// Healed by other means (operator restart path, a successful
			// swap); this loop's job is done.
			if s != nil {
				s.recovering = false
			}
			t.mu.Unlock()
			return
		}
		if t.attemptLocked(host, s, recoveryProbes, false) || t.stopped() {
			return
		}
	}
}

// SiteState reports the host's current state.
func (t *Tracker) SiteState(host string) State {
	if t == nil {
		return Healthy
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.sites[host]; s != nil {
		return s.state
	}
	return Healthy
}

// Attempts reports how many repair attempts the host's current quarantine
// has spent — the observable the remap-loop bound is asserted on.
func (t *Tracker) Attempts(host string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.sites[host]; s != nil {
		return s.attempts
	}
	return 0
}

// Quarantined returns the set of hosts queries must short-circuit:
// everything confirmed drifted (quarantined or mid-repair). Callers
// snapshot this once per query so mid-query transitions cannot make
// outcomes schedule-dependent. Returns nil when the set is empty or the
// tracker is nil.
func (t *Tracker) Quarantined() map[string]bool {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out map[string]bool
	for host, s := range t.sites {
		if s.state == Quarantined || s.state == Repairing {
			if out == nil {
				out = make(map[string]bool)
			}
			out[host] = true
		}
	}
	return out
}

// SiteSnapshot is the durable view of one site's health: state plus the
// counters that make restart indistinguishable from a long pause — a
// restored process must not re-probe a known-dead host or hand a
// quarantined site a fresh MaxAttempts budget.
type SiteSnapshot struct {
	State     string `json:"state"`
	Drifts    int    `json:"drifts"`
	Attempts  int    `json:"attempts"`
	Exhausted bool   `json:"exhausted"`
}

// Snapshot captures every site with health evidence. A site mid-repair is
// recorded as quarantined: the worker goroutine does not survive a
// restart, but the quarantine (and the attempts already spent) does.
func (t *Tracker) Snapshot() map[string]SiteSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]SiteSnapshot, len(t.sites))
	for host, s := range t.sites {
		st := s.state
		if st == Repairing {
			st = Quarantined
		}
		if st == Healthy && s.drifts == 0 {
			continue // cold default; nothing worth persisting
		}
		out[host] = SiteSnapshot{State: st.String(), Drifts: s.drifts,
			Attempts: s.attempts, Exhausted: s.exhausted}
	}
	return out
}

// Restore pre-populates sites from a persisted snapshot, before the
// tracker takes drift reports. Restored quarantines resume where they
// left off: a site with repair budget remaining relaunches its worker
// (continuing, not restarting, the attempt count); an exhausted site
// stays terminal — except that when RecoveryBackoff is enabled it gets a
// slow probe loop, exactly as it would have in the original process.
// Unknown state strings are ignored (version-skew tolerance: fall back to
// cold, never guess).
func (t *Tracker) Restore(snap map[string]SiteSnapshot) {
	if t == nil {
		return
	}
	type relaunch struct{ host string }
	var workers []relaunch
	t.mu.Lock()
	for host, ss := range snap {
		if _, exists := t.sites[host]; exists {
			continue
		}
		s := &site{drifts: ss.Drifts, attempts: ss.Attempts, exhausted: ss.Exhausted}
		switch ss.State {
		case Suspect.String():
			s.state = Suspect
		case Quarantined.String(), Repairing.String():
			s.state = Quarantined
		case Healthy.String():
			s.state = Healthy
		default:
			continue
		}
		t.sites[host] = s
		if s.state != Quarantined {
			continue
		}
		if s.exhausted || s.attempts >= t.cfg.MaxAttempts {
			s.exhausted = true
			t.launchRecoveryLocked(host, s)
		} else if t.cfg.Repair != nil {
			t.wg.Add(1)
			workers = append(workers, relaunch{host})
		}
	}
	t.gaugeLocked()
	t.mu.Unlock()
	for _, w := range workers {
		go t.repairLoop(w.host)
	}
}

// Wait blocks until every launched repair worker has finished — the
// quiescent point deterministic tests sequence phases on.
func (t *Tracker) Wait() {
	if t == nil {
		return
	}
	t.wg.Wait()
}

// gaugeLocked publishes the sites_quarantined gauge; t.mu must be held.
func (t *Tracker) gaugeLocked() {
	n := int64(0)
	for _, s := range t.sites {
		if s.state == Quarantined || s.state == Repairing {
			n++
		}
	}
	sitesQuarantined.Set(t.cfg.Metrics, n)
}
