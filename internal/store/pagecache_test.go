package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"webbase/internal/trace"
	"webbase/internal/web"
)

func pageTierOver(t *testing.T, dir string) (*PageTier, *Store) {
	t.Helper()
	s, err := Open(dir, Options{Metrics: trace.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	pt := NewPageTier(s, 0)
	t.Cleanup(pt.Close)
	return pt, s
}

func TestPageTierRoundTripAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	pt, _ := pageTierOver(t, dir)
	fetched := time.Date(2026, 8, 8, 12, 0, 0, 123456789, time.UTC)
	resp := &web.Response{Status: 200, URL: "http://x.test/a", Body: []byte("<html>a</html>")}
	pt.Store("key-a", resp, fetched)
	pt.Flush()
	pt.Close()

	// Restart: a fresh tier over the same dir serves the page with its
	// original fetch time, so MaxAge semantics carry across the restart.
	pt2, _ := pageTierOver(t, dir)
	got, at, ok := pt2.Load("key-a")
	if !ok {
		t.Fatal("warm page lost across restart")
	}
	if got.Status != resp.Status || got.URL != resp.URL || !bytes.Equal(got.Body, resp.Body) {
		t.Fatalf("restored page = %+v, want %+v", got, resp)
	}
	if !at.Equal(fetched) {
		t.Fatalf("restored fetch time = %v, want %v", at, fetched)
	}
}

func TestPageTierInvalidateSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	pt, _ := pageTierOver(t, dir)
	pt.Store("k", web.HTML("http://x.test/", "old design"), time.Unix(1, 0))
	pt.Flush()
	pt.Invalidate() // the Clear's intent must outlive the process
	pt.Close()

	pt2, _ := pageTierOver(t, dir)
	if _, _, ok := pt2.Load("k"); ok {
		t.Fatal("invalidated page resurrected after restart")
	}
	// Entries stored after the invalidation live under the new generation.
	pt2.Store("k", web.HTML("http://x.test/", "new design"), time.Unix(2, 0))
	pt2.Flush()
	if got, _, ok := pt2.Load("k"); !ok {
		t.Fatal("post-invalidate store not served")
	} else if string(got.Body) != "new design" {
		t.Fatalf("post-invalidate store served %q", got.Body)
	}
}

func TestPageTierCorruptGenerationDropsTier(t *testing.T) {
	dir := t.TempDir()
	pt, s := pageTierOver(t, dir)
	pt.Store("k", web.HTML("http://x.test/", "body"), time.Unix(1, 0))
	pt.Invalidate() // persist a non-zero generation
	pt.Store("k2", web.HTML("http://x.test/2", "body2"), time.Unix(2, 0))
	pt.Flush()
	pt.Close()

	// Corrupt the generation meta record: with no trusted generation, an
	// old entry could resurrect a cleared page, so the whole tier drops.
	metaPath := s.path(TierPages, genMetaKey)
	if err := os.WriteFile(metaPath, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	pt2, s2 := pageTierOver(t, dir)
	if _, _, ok := pt2.Load("k2"); ok {
		t.Fatal("entry served from a tier whose generation bookkeeping was lost")
	}
	names, _ := os.ReadDir(filepath.Join(dir, TierPages.String()))
	for _, n := range names {
		t.Errorf("tier not emptied: %s remains", n.Name())
	}
	_ = s2
}

func TestPageTierCorruptEntryIsMissAndCollected(t *testing.T) {
	dir := t.TempDir()
	pt, s := pageTierOver(t, dir)
	pt.Store("k", web.HTML("http://x.test/", "body"), time.Unix(1, 0))
	pt.Flush()
	p := s.path(TierPages, "k")
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := pt.Load("k"); ok {
		t.Fatal("corrupt entry served")
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Error("corrupt entry not garbage-collected")
	}
	// The memory tier refills over it as if it were a plain miss.
	pt.Store("k", web.HTML("http://x.test/", "refill"), time.Unix(2, 0))
	pt.Flush()
	if got, _, ok := pt.Load("k"); !ok {
		t.Fatal("refill after corruption not served")
	} else if string(got.Body) != "refill" {
		t.Fatalf("refill after corruption served %q", got.Body)
	}
}

func TestPageTierStoreAfterCloseIsNoop(t *testing.T) {
	pt, _ := pageTierOver(t, t.TempDir())
	pt.Close()
	pt.Store("k", web.HTML("http://x.test/", "late"), time.Unix(1, 0)) // must not panic
	pt.Flush()                                                         // must not hang
	pt.Invalidate()
}

func boundedTier(t *testing.T, dir string, maxBytes int64) (*PageTier, *trace.Registry) {
	t.Helper()
	reg := trace.NewRegistry()
	s, err := Open(dir, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	pt := NewPageTier(s, maxBytes)
	t.Cleanup(pt.Close)
	return pt, reg
}

// pageOfSize builds pages whose persisted payloads are byte-identical in
// size, so eviction arithmetic in the tests is exact.
func pageOfSize(tag string) *web.Response {
	return &web.Response{Status: 200, URL: "http://x.test/" + tag, Body: bytes.Repeat([]byte(tag), 400)}
}

func payloadSize(t *testing.T) int64 {
	t.Helper()
	dir := t.TempDir()
	pt, _ := boundedTier(t, dir, 0)
	pt.Store("probe", pageOfSize("p"), time.Unix(1, 0))
	pt.Flush()
	s, err := Open(dir, Options{Metrics: trace.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	payload, _, err := s.Get(TierPages, "probe")
	if err != nil {
		t.Fatal(err)
	}
	return int64(len(payload))
}

// TestPageTierEvictsLeastRecentlyUsed: with a bound that fits two pages,
// storing a third evicts the least-recently-touched one — and a Load
// counts as a touch, so reading a page protects it.
func TestPageTierEvictsLeastRecentlyUsed(t *testing.T) {
	size := payloadSize(t)
	pt, reg := boundedTier(t, t.TempDir(), 2*size+size/2)

	pt.Store("a", pageOfSize("a"), time.Unix(1, 0))
	pt.Store("b", pageOfSize("b"), time.Unix(2, 0))
	pt.Flush()
	if _, _, ok := pt.Load("a"); !ok { // touch a: b becomes the LRU victim
		t.Fatal("page a missing before any eviction")
	}
	pt.Store("c", pageOfSize("c"), time.Unix(3, 0))
	pt.Flush()

	if _, _, ok := pt.Load("b"); ok {
		t.Fatal("LRU victim b survived past the bound")
	}
	for _, k := range []string{"a", "c"} {
		if _, _, ok := pt.Load(k); !ok {
			t.Fatalf("page %s evicted though it was not the LRU victim", k)
		}
	}
	if n := reg.Counter(`store_evicted_total{tier="pages"}`).Value(); n != 1 {
		t.Fatalf("store_evicted_total{tier=pages} = %d, want 1", n)
	}
	if n := reg.Counter("store_evicted_total").Value(); n != 1 {
		t.Fatalf("store_evicted_total = %d, want 1", n)
	}
}

// TestPageTierBoundHoldsAcrossRestart: an unbounded tier accumulates four
// pages; reopening it with a two-page bound trims the stalest-fetched
// pages at boot. The bound is a property of the directory's contents, not
// of one process's in-memory index.
func TestPageTierBoundHoldsAcrossRestart(t *testing.T) {
	size := payloadSize(t)
	dir := t.TempDir()
	pt, _ := boundedTier(t, dir, 0)
	for i, k := range []string{"w", "x", "y", "z"} {
		pt.Store(k, pageOfSize(k), time.Unix(int64(i+1), 0))
	}
	pt.Flush()
	pt.Close()

	pt2, reg := boundedTier(t, dir, 2*size+size/2)
	for _, k := range []string{"w", "x"} { // oldest fetch times evict first
		if _, _, ok := pt2.Load(k); ok {
			t.Fatalf("stale page %s survived the boot-time trim", k)
		}
	}
	for _, k := range []string{"y", "z"} {
		if _, _, ok := pt2.Load(k); !ok {
			t.Fatalf("fresh page %s lost by the boot-time trim", k)
		}
	}
	if n := reg.Counter(`store_evicted_total{tier="pages"}`).Value(); n != 2 {
		t.Fatalf("store_evicted_total{tier=pages} = %d, want 2", n)
	}

	// The rebuilt index keeps enforcing the bound for new writes.
	pt2.Store("q", pageOfSize("q"), time.Unix(9, 0))
	pt2.Flush()
	if _, _, ok := pt2.Load("y"); ok {
		t.Fatal("post-restart write did not evict the rebuilt-index LRU victim")
	}
	if _, _, ok := pt2.Load("q"); !ok {
		t.Fatal("post-restart write itself missing")
	}
	if n := reg.Counter(`store_evicted_total{tier="pages"}`).Value(); n != 3 {
		t.Fatalf("store_evicted_total{tier=pages} after restart write = %d, want 3", n)
	}
}

// TestPageTierOversizeEntryEvicted: the bound is absolute — a single
// entry larger than the whole budget does not take up residence.
func TestPageTierOversizeEntryEvicted(t *testing.T) {
	size := payloadSize(t)
	pt, reg := boundedTier(t, t.TempDir(), size/2)
	pt.Store("big", pageOfSize("b"), time.Unix(1, 0))
	pt.Flush()
	if _, _, ok := pt.Load("big"); ok {
		t.Fatal("entry larger than the tier bound survived")
	}
	if n := reg.Counter(`store_evicted_total{tier="pages"}`).Value(); n != 1 {
		t.Fatalf("store_evicted_total{tier=pages} = %d, want 1", n)
	}
}
