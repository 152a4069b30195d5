package vps

import (
	"context"
	"fmt"

	"webbase/internal/navcalc"
	"webbase/internal/navmap"
)

// This file is the hot-swap half of the self-healing subsystem: the
// registry can atomically replace a relation's navigation map (and the
// expression translated from it) while queries are running. Swapping is
// copy-on-write — Populate loads the override pointer once per
// handle invocation — so the query path takes no locks and an in-flight
// query finishes on the map it started with.

// MapOverride is a repaired navigation map installed over a relation's
// base map, together with its translated expression and provenance.
type MapOverride struct {
	Map         *navmap.Map
	Expr        *navcalc.Expression
	Version     int    // 1 is the base map; each swap increments
	Fingerprint string // navmap.Fingerprint of Map
}

// CurrentMap returns the navigation map the relation is currently served
// from: the latest swapped-in override, or the base map (nil when the
// relation was registered without one).
func (r *Registry) CurrentMap(name string) *navmap.Map {
	ri, ok := r.relations[name]
	if !ok {
		return nil
	}
	if ov := ri.override.Load(); ov != nil {
		return ov.Map
	}
	return ri.baseMap
}

// MapVersion reports which map generation the relation currently serves
// from (1 = the base map) and its fingerprint ("" for a base map that was
// never swapped).
func (r *Registry) MapVersion(name string) (int, string) {
	ri, ok := r.relations[name]
	if !ok {
		return 0, ""
	}
	if ov := ri.override.Load(); ov != nil {
		return ov.Version, ov.Fingerprint
	}
	return 1, ""
}

// SwapMap atomically installs a repaired navigation map for the relation.
// The map is validated and translated before the pointer moves, so a swap
// either fully succeeds or changes nothing; queries already executing the
// old expression are unaffected. Returns the new map version.
func (r *Registry) SwapMap(name string, m *navmap.Map) (int, error) {
	return r.install("swapping", name, m, 0)
}

// RestoreMap installs a previously persisted repaired map as the
// relation's override, preserving the map version it was healed at — a
// restart must not rewind MapVersion, or a fleet member would re-announce
// an old generation. It shares SwapMap's validate/translate/schema-check
// discipline (a corrupt or mismatched persisted map changes nothing), and
// is meant for boot time, before queries run.
func (r *Registry) RestoreMap(name string, m *navmap.Map, version int) error {
	if version < 2 {
		return fmt.Errorf("vps: restoring map for %s: version %d is not a swap generation (≥ 2)", name, version)
	}
	_, err := r.install("restoring", name, m, version)
	return err
}

// install validates and translates m and stores it as the relation's
// override at version, which must be newer than the installed one; a
// version of 0 is the generation after the installed one. Any failure
// changes nothing. verb names the operation in errors.
func (r *Registry) install(verb, name string, m *navmap.Map, version int) (int, error) {
	ri, ok := r.relations[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownRelation, name)
	}
	if err := m.Validate(); err != nil {
		return 0, fmt.Errorf("vps: %s map for %s: %w", verb, name, err)
	}
	expr, err := navmap.Translate(m)
	if err != nil {
		return 0, fmt.Errorf("vps: %s map for %s: %w", verb, name, err)
	}
	if !expr.Schema.EqualUnordered(ri.Schema) {
		return 0, fmt.Errorf("vps: %s map for %s: map schema %v ≠ relation schema %v",
			verb, name, expr.Schema, ri.Schema)
	}
	prev := ri.override.Load()
	switch {
	case version == 0 && prev == nil:
		version = 2
	case version == 0:
		version = prev.Version + 1
	case prev != nil && prev.Version >= version:
		return 0, fmt.Errorf("vps: %s map for %s: version %d is not newer than installed %d",
			verb, name, version, prev.Version)
	}
	ri.override.Store(&MapOverride{
		Map:         m,
		Expr:        expr,
		Version:     version,
		Fingerprint: navmap.Fingerprint(m),
	})
	r.installs.Add(1)
	return version, nil
}

// Installs counts the maps swapped in or restored so far. It moves after
// the map it counts is served, so a reader that sees it unchanged has seen
// every MapVersion it covers.
func (r *Registry) Installs() uint64 { return r.installs.Load() }

type quarantineKey struct{}

// ContextWithQuarantine attaches the set of quarantined hosts consulted
// by Populate. The caller snapshots the set once at query start —
// mid-query health transitions must not change a running query's
// behavior, or outcomes would depend on goroutine scheduling.
func ContextWithQuarantine(ctx context.Context, hosts map[string]bool) context.Context {
	if len(hosts) == 0 {
		return ctx
	}
	return context.WithValue(ctx, quarantineKey{}, hosts)
}

// QuarantineFrom returns the quarantined-host snapshot (nil when none).
func QuarantineFrom(ctx context.Context) map[string]bool {
	m, _ := ctx.Value(quarantineKey{}).(map[string]bool)
	return m
}
