package client

import (
	"sync"
	"time"

	"webbase/internal/web"
)

// Fleet failover: a Client can hold a set of replica endpoints instead of
// one URL. Every attempt asks the set for the best endpoint right now —
// pick-first with health-ordered rotation — and reports the outcome back,
// so the set accumulates a breaker-style failure memory per replica:
// consecutive failures bench an endpoint for a doubling, capped cooldown,
// and a single success resets it. A benched replica is skipped while any
// healthy one remains; when every replica is benched the one whose bench
// expires soonest is tried anyway (the client would rather probe a
// suspect replica than refuse to try at all).

// endpointState is one replica's failure memory.
type endpointState struct {
	url          string
	fails        int       // consecutive endpoint-attributed failures
	benchedUntil time.Time // skipped while in the future and a healthy peer exists
}

// endpointSet is the client's replica set, in configured order. Safe for
// concurrent use by the client's streams — they share one failure memory,
// which is the point: a replica one stream watched die is a replica the
// next stream avoids.
type endpointSet struct {
	mu    sync.Mutex
	eps   []*endpointState
	now   func() time.Time
	bench web.Backoff // cooldown of the n-th consecutive failure
}

func newEndpointSet(urls []string, base, max time.Duration, now func() time.Time) *endpointSet {
	s := &endpointSet{now: now, bench: web.Backoff{Base: base, Max: max}}
	for _, u := range urls {
		s.eps = append(s.eps, &endpointState{url: u})
	}
	return s
}

// multi reports whether the set holds more than one replica — the switch
// that arms failover-only behaviors (5xx rotation).
func (s *endpointSet) multi() bool { return len(s.eps) > 1 }

// pick returns the endpoint the next attempt should use: the first (in
// configured order) unbenched endpoint with the fewest consecutive
// failures; if every endpoint is benched, the one whose bench expires
// soonest. With one endpoint it is always that endpoint — pacing is the
// backoff sleep's job, not the bench's.
func (s *endpointSet) pick() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	var best *endpointState
	for _, ep := range s.eps {
		if ep.benchedUntil.After(now) {
			continue
		}
		if best == nil || ep.fails < best.fails {
			best = ep
		}
	}
	if best != nil {
		return best.url
	}
	// Everything is benched: probe the replica closest to parole.
	best = s.eps[0]
	for _, ep := range s.eps[1:] {
		if ep.benchedUntil.Before(best.benchedUntil) {
			best = ep
		}
	}
	return best.url
}

// ok resets an endpoint's failure memory after a successful connection.
func (s *endpointSet) ok(url string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ep := range s.eps {
		if ep.url == url {
			ep.fails = 0
			ep.benchedUntil = time.Time{}
			return
		}
	}
}

// fail records an endpoint-attributed failure (transport error, 5xx,
// shed, stall): the endpoint is benched for a cooldown that doubles with
// each consecutive failure, capped, so rotation prefers its peers while
// it recovers but re-probes it on a bounded schedule.
func (s *endpointSet) fail(url string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ep := range s.eps {
		if ep.url != url {
			continue
		}
		ep.fails++
		ep.benchedUntil = s.now().Add(s.bench.Nominal(ep.fails))
		return
	}
}
