package core

// The webbase side of the durable state tier: persist-on-transition hooks
// and boot-time restores for the three durable tiers (pages are handled
// inline by store.PageTier behind web.Cache; this file owns maps, breaker
// and health). Every restore path tolerates missing or corrupt state by
// falling back cold — a broken state dir may never fail assembly or a
// query — and payload-level decode failures are counted through
// Store.CountCorrupt so they land in the same store_corrupt_total{tier=...}
// metric as file-level ones.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"webbase/internal/navmap"
	"webbase/internal/store"
	"webbase/internal/vps"
)

// Store tier names.
const (
	tierMaps    = "maps"
	tierBreaker = "breaker"
	tierHealth  = "health"
)

// Single-record keys for the snapshot tiers.
const (
	breakerKey = "circuits"
	healthKey  = "sites"
)

// persistMap writes a freshly repaired, already-swapped map. The record's
// generation field carries the map version, so a restore re-installs the
// override at the version it was healed at. A swap replaces the previous
// version's record in place — map records are keyed by relation name —
// and the superseded version counts as a map-tier eviction.
func (wb *Webbase) persistMap(name string, version int, m *navmap.Map) {
	if wb.store == nil {
		return
	}
	data, err := navmap.EncodeMap(m)
	if err != nil {
		return
	}
	if _, prev, err := wb.store.Get(tierMaps, name); err == nil && prev != uint64(version) {
		wb.store.CountEvicted(tierMaps)
	}
	wb.store.Put(tierMaps, name, uint64(version), data)
}

// restoreMaps installs every persisted repaired map as a registry
// override at boot. A map that fails decoding, validation or the schema
// check changes nothing and counts as corruption — the relation simply
// serves from its base map until the next repair. Boot doubles as the
// map tier's GC pass: records that can never be restored again — a
// relation this domain no longer serves, an undecodable payload — are
// deleted rather than rescanned forever, counted as map-tier evictions
// (corrupt ones were already counted as corruption too).
func (wb *Webbase) restoreMaps() {
	if wb.store == nil {
		return
	}
	wb.store.Scan(tierMaps, func(key string, gen uint64, payload []byte) {
		m, err := navmap.DecodeMap(payload)
		if err != nil {
			wb.store.CountCorrupt(tierMaps)
			wb.gcRecord(tierMaps, key)
			return
		}
		if err := wb.Registry.RestoreMap(key, m, int(gen)); err != nil {
			if errors.Is(err, vps.ErrUnknownRelation) {
				wb.gcRecord(tierMaps, key)
				return
			}
			wb.store.CountCorrupt(tierMaps)
		}
	})
}

// persistSnapshot writes a snapshot tier's single record. An empty
// snapshot — every circuit closed again, every site healthy — carries
// nothing a cold boot wouldn't assume, so the stale record is GCed
// instead of rewritten.
func persistSnapshot[T any](wb *Webbase, tier, key string, snap map[string]T) {
	if len(snap) == 0 {
		wb.gcRecord(tier, key)
		return
	}
	data, err := json.Marshal(snap)
	if err != nil {
		return
	}
	wb.store.Put(tier, key, 0, data)
}

// restoreSnapshot hands a snapshot tier's record to restore at boot. A
// missing record is a cold start and a corrupt file was already counted
// by Get; a payload that does not decode counts as corruption here.
func restoreSnapshot[T any](wb *Webbase, tier, key string, restore func(map[string]T)) {
	payload, _, err := wb.store.Get(tier, key)
	if err != nil {
		return
	}
	var snap map[string]T
	if err := json.Unmarshal(payload, &snap); err != nil {
		wb.store.CountCorrupt(tier)
		return
	}
	if len(snap) == 0 {
		// A stale record from before delete-on-empty: GC it at boot.
		wb.gcRecord(tier, key)
		return
	}
	restore(snap)
}

// persistBreaker snapshots the open circuits. Called from the breaker's
// OnChange hook (outside its locks) on every trip and close, so the
// durable view tracks transitions, not a shutdown-only flush.
func (wb *Webbase) persistBreaker() {
	if wb.store != nil && wb.stack.Breaker != nil {
		persistSnapshot(wb, tierBreaker, breakerKey, wb.stack.Breaker.Snapshot())
	}
}

// restoreBreaker pre-populates open circuits at boot: a restarted process
// fast-fails a known-dead host immediately instead of re-earning the
// verdict through a fresh failure window.
func (wb *Webbase) restoreBreaker() {
	if wb.store != nil && wb.stack.Breaker != nil {
		restoreSnapshot(wb, tierBreaker, breakerKey, wb.stack.Breaker.Restore)
	}
}

// persistHealth snapshots site health. Called from the tracker's OnChange
// hook (outside its lock) on every transition.
func (wb *Webbase) persistHealth() {
	if wb.store != nil && wb.health != nil {
		persistSnapshot(wb, tierHealth, healthKey, wb.health.Snapshot())
	}
}

// restoreHealth resumes persisted quarantines at boot (attempt counts
// preserved; exhausted sites stay terminal apart from slow recovery
// probes). May relaunch repair workers, exactly as the original process
// would have after the same transitions.
func (wb *Webbase) restoreHealth() {
	if wb.store != nil && wb.health != nil {
		restoreSnapshot(wb, tierHealth, healthKey, wb.health.Restore)
	}
}

// gcRecord deletes one durable record that no longer carries information
// — a superseded or unrestorable map, an empty snapshot — and counts the
// eviction, but only when a record was actually present: the common case
// (nothing there) must stay metric-silent so store_evicted_total means
// what it says.
func (wb *Webbase) gcRecord(tier, key string) {
	if _, _, err := wb.store.Get(tier, key); store.IsNotExist(err) {
		return
	}
	if wb.store.Delete(tier, key) == nil {
		wb.store.CountEvicted(tier)
	}
}

// ConsistencyToken fingerprints the webbase state a streamed answer is a
// function of: the page-cache clear-generation and every relation's
// navigation-map version and fingerprint. Two queries observing the same
// token ran against the same web view, so a stream interrupted under one
// token can be resumed by re-execution under the same token and stitch to
// a byte-identical event sequence; a changed token means the answers
// could differ and the resume must be refused rather than spliced.
//
// With a state dir the durable page-tier generation is used (it survives
// restarts, so a warm-restarted process keeps its token); without one the
// in-memory cache generation stands in, and restored map versions default
// back to 1 — a cold restart deliberately changes the token, because a
// process that forgot its healed maps can no longer promise the same
// answer bytes.
func (wb *Webbase) ConsistencyToken() string {
	h := sha256.New()
	gen := wb.stack.Cache.Generation()
	if wb.pageTier != nil {
		gen = wb.pageTier.Generation()
	}
	fmt.Fprintf(h, "cache-gen=%d\n", gen)
	// Relations() is sorted by name, so the digest is deterministic.
	for _, ri := range wb.Registry.Relations() {
		v, fp := wb.Registry.MapVersion(ri.Name)
		fmt.Fprintf(h, "map=%s:%d:%s\n", ri.Name, v, fp)
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:12])
}

// FlushState forces every dirty durable-tier write to disk: queued page
// writes, plus fresh breaker and health snapshots. It is the
// graceful-shutdown flush — and a no-op without Config.StateDir.
func (wb *Webbase) FlushState() {
	if wb.store == nil {
		return
	}
	wb.persistBreaker()
	wb.persistHealth()
	if wb.pageTier != nil {
		wb.pageTier.Flush()
	}
}

// Close releases the webbase's background resources: it ends health
// recovery probe loops, flushes durable state and stops the page tier's
// writer. Queries must have drained first. Safe without Config.StateDir
// (only the health shutdown applies) and safe to call more than once.
func (wb *Webbase) Close() {
	wb.health.Close()
	wb.FlushState()
	if wb.pageTier != nil {
		wb.pageTier.Close()
	}
}
