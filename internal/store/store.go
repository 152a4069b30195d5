// Package store is the webbase's durable state tier: a dependency-free,
// crash-safe persistence layer under the in-memory stacks. It holds the
// expensive state the system accumulates — warmed pages, repaired
// navigation maps, breaker and health verdicts — across restarts, so a
// redeployed replica does not re-fetch the Web, re-probe known-dead hosts
// or re-learn site redesigns from scratch.
//
// The store is strictly a cache, never a source of truth: every layer
// above is a deterministic function of fetched pages, so a missing,
// truncated, bit-flipped, version-skewed or concurrently-replaced state
// file degrades to cold state (the system re-derives it) and may never
// fail a query or panic. Reads verify a content fingerprint and typed
// errors (ErrCorrupt, ErrNotExist) let every tier fall back with one
// errors.Is check; writes are atomic (temp file + fsync + rename) so a
// crash mid-write leaves the previous record intact. Corrupt files are
// counted per tier in store_corrupt_total.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"webbase/internal/trace"
)

// fileExt is the state-file suffix; foreign files in a tier directory are
// ignored rather than decoded.
const fileExt = ".wbs"

// Tier is one of the store's tiers: a directory of records under the
// state dir, and a value of the tier label on the store's metrics.
type Tier uint8

// The tiers, in tierNames order.
const (
	TierPages Tier = iota
	TierMaps
	TierBreaker
	TierHealth
	// TierOpen is no directory: it labels a state dir that would not open.
	TierOpen
)

// tierNames are the tiers' directory names and tier label values.
var tierNames = []string{"pages", "maps", "breaker", "health", "open"}

func (t Tier) String() string { return tierNames[t] }

// The store's metrics, each broken down by tier; only corruption counts
// against TierOpen.
var (
	corruptTotal = trace.NewCounterVec("store_corrupt_total",
		"State records that failed their integrity check, and state dirs that would not open.", "tier", tierNames...)
	evictedTotal = trace.NewCounterVec("store_evicted_total",
		"State records removed: pages past the size bound, superseded maps, stale snapshots.", "tier", tierNames[:TierOpen]...)
	writeFailedTotal = trace.NewCounterVec("store_write_failed_total",
		"State record writes that failed; the record is a lost cache fill.", "tier", tierNames[:TierOpen]...)
)

// Options tunes Open.
type Options struct {
	// Metrics receives the store's metrics: store_corrupt_total on every
	// integrity failure (and on Open failing), store_evicted_total and
	// store_write_failed_total. nil records nothing.
	Metrics *trace.Registry
	// FS is the filesystem seam; nil means the real filesystem with
	// atomic writes. Tests inject FaultFS.
	FS FS
}

// Store is one state directory: a set of named tiers, each a directory of
// fingerprinted record files keyed by hashed logical keys. Store is safe
// for concurrent use.
type Store struct {
	dir     string
	fs      FS
	metrics *trace.Registry
}

// Open roots a store at dir, creating it if needed. Open fails only when
// the directory cannot be created — counted as corruption of TierOpen —
// and callers treat that as "no store" and run cold, because a broken
// state dir may never take queries down.
func Open(dir string, opts Options) (*Store, error) {
	fs := opts.FS
	if fs == nil {
		fs = osFS{}
	}
	if err := fs.MkdirAll(dir); err != nil {
		corruptTotal.Add(opts.Metrics, int(TierOpen), 1)
		return nil, fmt.Errorf("store: opening state dir %s: %w", dir, err)
	}
	return &Store{dir: dir, fs: fs, metrics: opts.Metrics}, nil
}

// Dir returns the state directory the store is rooted at.
func (s *Store) Dir() string { return s.dir }

// path maps (tier, key) to the record file: keys are hashed so any string
// — full request keys with URLs and form encodings included — is a safe
// file name, and the key itself rides inside the record for verification.
func (s *Store) path(tier Tier, key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, tier.String(), hex.EncodeToString(sum[:16])+fileExt)
}

// Put atomically writes one record. Errors are reported (and counted) but
// callers treat them as lost cache fills, never failures.
func (s *Store) Put(tier Tier, key string, gen uint64, payload []byte) error {
	if err := s.fs.MkdirAll(filepath.Join(s.dir, tier.String())); err != nil {
		s.countWriteFailed(tier)
		return fmt.Errorf("store: put %s/%s: %w", tier, key, err)
	}
	if err := s.fs.WriteFile(s.path(tier, key), encodeRecord(key, gen, payload)); err != nil {
		s.countWriteFailed(tier)
		return fmt.Errorf("store: put %s/%s: %w", tier, key, err)
	}
	return nil
}

// Get reads and verifies one record, returning its payload and the
// generation it was written under. A clean miss is ErrNotExist; any
// integrity failure — including a record whose embedded key does not
// match (a file renamed or hash-collided onto the wrong slot) — is
// ErrCorrupt, already counted against the tier.
func (s *Store) Get(tier Tier, key string) ([]byte, uint64, error) {
	data, err := s.fs.ReadFile(s.path(tier, key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, fmt.Errorf("%w: %s/%s", ErrNotExist, tier, key)
		}
		// An unreadable file is indistinguishable from a corrupt one for
		// fallback purposes.
		s.CountCorrupt(tier)
		return nil, 0, fmt.Errorf("%w: %s/%s: %v", ErrCorrupt, tier, key, err)
	}
	rec, err := DecodeRecord(data)
	if err != nil {
		s.CountCorrupt(tier)
		return nil, 0, fmt.Errorf("%s/%s: %w", tier, key, err)
	}
	if rec.Key != key {
		s.CountCorrupt(tier)
		return nil, 0, fmt.Errorf("%w: %s/%s: record carries key %q", ErrCorrupt, tier, key, rec.Key)
	}
	return rec.Payload, rec.Generation, nil
}

// Delete removes one record (no error when absent).
func (s *Store) Delete(tier Tier, key string) error {
	return s.fs.Remove(s.path(tier, key))
}

// DeleteTier removes every record of a tier — the bulk invalidation a
// tier uses when its generation bookkeeping itself is lost.
func (s *Store) DeleteTier(tier Tier) error {
	dir := filepath.Join(s.dir, tier.String())
	names, err := s.fs.ReadDir(dir)
	if err != nil {
		return err
	}
	var firstErr error
	for _, name := range names {
		if filepath.Ext(name) != fileExt {
			continue
		}
		if err := s.fs.Remove(filepath.Join(dir, name)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Scan visits every valid record of a tier in sorted file order, so boot
// restores are deterministic. Corrupt files are counted and skipped —
// one bad record never hides the rest of the tier.
func (s *Store) Scan(tier Tier, fn func(key string, gen uint64, payload []byte)) error {
	dir := filepath.Join(s.dir, tier.String())
	names, err := s.fs.ReadDir(dir)
	if err != nil {
		s.CountCorrupt(tier)
		return fmt.Errorf("%w: scanning %s: %v", ErrCorrupt, tier, err)
	}
	for _, name := range names {
		if filepath.Ext(name) != fileExt {
			continue
		}
		data, err := s.fs.ReadFile(filepath.Join(dir, name))
		if err != nil {
			if os.IsNotExist(err) {
				continue // concurrently replaced or removed; the new record will be seen next boot
			}
			s.CountCorrupt(tier)
			continue
		}
		rec, err := DecodeRecord(data)
		if err != nil {
			s.CountCorrupt(tier)
			continue
		}
		fn(rec.Key, rec.Generation, rec.Payload)
	}
	return nil
}

// CountCorrupt counts one integrity failure against a tier. The store
// counts its own file-level failures; tiers call it for payload-level
// ones (a JSON snapshot or navigation map that fails its own validation)
// so every corruption mode lands in the same metric.
func (s *Store) CountCorrupt(tier Tier) {
	if s != nil {
		corruptTotal.Add(s.metrics, int(tier), 1)
	}
}

// CountEvicted counts one eviction against a tier in
// store_evicted_total: a page evicted past the size bound, a superseded
// map version, or a stale snapshot GCed at boot or on transition.
func (s *Store) CountEvicted(tier Tier) {
	if s != nil {
		evictedTotal.Add(s.metrics, int(tier), 1)
	}
}

func (s *Store) countWriteFailed(tier Tier) {
	writeFailedTotal.Add(s.metrics, int(tier), 1)
}

// IsCorrupt reports whether err is an integrity failure (errors.Is
// ErrCorrupt).
func IsCorrupt(err error) bool { return errors.Is(err, ErrCorrupt) }

// IsNotExist reports a clean miss (errors.Is ErrNotExist).
func IsNotExist(err error) bool { return errors.Is(err, ErrNotExist) }
