package web

import (
	"context"
	"errors"
)

// This file is the fetch stack's error taxonomy. The 1998 Web fails in
// qualitatively different ways — a dead site, a page that answers "404",
// a site redesigned under its map — and the upper layers need to tell
// them apart: the UR layer degrades around an Outage but must propagate a
// SiteAnswer (the site spoke; its answer just wasn't a success), and
// nothing above should ever confuse either with the user cancelling the
// query.
//
// Classification rides the error chain: Mark wraps an error with a
// FaultClass that errors.Is surfaces through the standard sentinels
// (ErrOutage, ErrSiteAnswer, ErrSiteDrift), and HostError pins the
// failure to the host that caused it so degradation reports can name the
// site. Context cancellation is deliberately outside the taxonomy:
// context.Canceled / DeadlineExceeded pass through every middleware
// unclassified, because "the user gave up" is not a site fault.

// FaultClass partitions fetch failures for the upper layers.
type FaultClass uint8

const (
	// FaultOutage marks terminal failures: retries are exhausted or the
	// breaker is open; the site is unreachable for this query.
	FaultOutage FaultClass = iota
	// FaultSiteAnswer marks responses that are the site's answer — a
	// non-success status is not a transport failure and retrying it is
	// pointless.
	FaultSiteAnswer
	// FaultDrift marks a healthy fetch whose pages no longer match the
	// navigation map: the site answered, but a mapped link, form or data
	// table has structurally vanished — the signature of a redesign, not
	// an outage.
	FaultDrift
)

// Taxonomy sentinels: match with errors.Is.
var (
	// ErrOutage matches terminal site failures (retries exhausted,
	// breaker open, host down).
	ErrOutage = errors.New("web: site outage")
	// ErrSiteAnswer matches errors that carry the site's own answer
	// (e.g. a non-success status).
	ErrSiteAnswer = errors.New("web: site answered with an error")
	// ErrSiteDrift matches failures classified as site drift: the site is
	// up, but its pages no longer match the navigation map.
	ErrSiteDrift = errors.New("web: site drifted from its navigation map")
	// ErrCircuitOpen is the cause recorded when the circuit breaker
	// rejects a fetch without touching the network.
	ErrCircuitOpen = errors.New("web: circuit breaker open")
	// ErrHostSaturated is the cause recorded when a host bulkhead sheds
	// a fetch because both its slots and its wait queue are full.
	ErrHostSaturated = errors.New("web: host bulkhead saturated")
)

// classified attaches a FaultClass to an error chain. It matches the
// corresponding sentinel via errors.Is while leaving the underlying
// message and chain intact.
type classified struct {
	class FaultClass
	err   error
}

func (e *classified) Error() string { return e.err.Error() }
func (e *classified) Unwrap() error { return e.err }

// Is makes errors.Is(err, ErrOutage) and friends work without the
// sentinel appearing verbatim in the chain.
func (e *classified) Is(target error) bool {
	switch target {
	case ErrOutage:
		return e.class == FaultOutage
	case ErrSiteAnswer:
		return e.class == FaultSiteAnswer
	case ErrSiteDrift:
		return e.class == FaultDrift
	}
	return false
}

// Mark classifies err. Context cancellation is never reclassified — the
// taxonomy describes site behavior, not the caller's — and a nil err
// stays nil.
func Mark(class FaultClass, err error) error {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return &classified{class: class, err: err}
}

// MarkOutage classifies err as a terminal site outage.
func MarkOutage(err error) error { return Mark(FaultOutage, err) }

// MarkSiteAnswer classifies err as the site's own (non-success) answer.
func MarkSiteAnswer(err error) error { return Mark(FaultSiteAnswer, err) }

// MarkDrift classifies err as site drift: a redesign, not an outage.
func MarkDrift(err error) error { return Mark(FaultDrift, err) }

// IsOutage reports whether err is classified as a terminal site outage.
func IsOutage(err error) bool { return errors.Is(err, ErrOutage) }

// IsSiteAnswer reports whether err carries the site's own answer.
func IsSiteAnswer(err error) bool { return errors.Is(err, ErrSiteAnswer) }

// IsDrift reports whether err is classified as site drift.
func IsDrift(err error) bool { return errors.Is(err, ErrSiteDrift) }

// HostError attributes a failure to the host that caused it, so that
// degradation reports can name the dead site rather than just the dead
// request.
type HostError struct {
	Host string
	Err  error
}

func (e *HostError) Error() string { return "host " + e.Host + ": " + e.Err.Error() }

// Unwrap keeps the chain intact for errors.Is/As.
func (e *HostError) Unwrap() error { return e.Err }

// FailingHost extracts the host a failure is attributed to, or "" when
// the chain carries no attribution.
func FailingHost(err error) string {
	var he *HostError
	if errors.As(err, &he) {
		return he.Host
	}
	return ""
}
