package web

import (
	"context"
	"sync"
	"testing"
	"time"
)

// fakeTier is an in-memory CacheTier double (the real disk tier lives in
// internal/store, which imports this package).
type fakeTier struct {
	mu          sync.Mutex
	entries     map[string]fakeTierEntry
	loads       int
	found       int // loads that returned an entry
	stores      int
	invalidates int
}

type fakeTierEntry struct {
	resp *Response
	at   time.Time
}

func newFakeTier() *fakeTier { return &fakeTier{entries: make(map[string]fakeTierEntry)} }

func (ft *fakeTier) Load(key string) (*Response, time.Time, bool) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.loads++
	e, ok := ft.entries[key]
	if !ok {
		return nil, time.Time{}, false
	}
	ft.found++
	return e.resp, e.at, true
}

func (ft *fakeTier) Store(key string, resp *Response, at time.Time) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.stores++
	ft.entries[key] = fakeTierEntry{resp: resp, at: at}
}

func (ft *fakeTier) Invalidate() {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.invalidates++
	ft.entries = make(map[string]fakeTierEntry)
}

func (ft *fakeTier) len() int {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return len(ft.entries)
}

// cacheOnly is the cache alone over inner: lookup directly over fill, with
// nothing between them.
func cacheOnly(inner Fetcher, cache *Cache) Fetcher {
	return WithCacheLookup(WithCacheFill(inner, cache), cache)
}

// countingFetcher counts fetches through to a canned response.
type countingFetcher struct {
	mu    sync.Mutex
	calls int
}

func (cf *countingFetcher) Fetch(req *Request) (*Response, error) {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	cf.calls++
	return HTML(req.URL, "network body"), nil
}

func (cf *countingFetcher) count() int {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	return cf.calls
}

func TestCacheTierWriteThroughAndServe(t *testing.T) {
	tier := newFakeTier()
	cache := NewCache()
	cache.Tier = tier
	net := &countingFetcher{}
	f := cacheOnly(net, cache)
	req := NewGet(context.Background(), "http://a.test/page")

	// Miss both tiers: network fetch, write-through to the tier.
	if _, err := f.Fetch(req); err != nil {
		t.Fatal(err)
	}
	if net.count() != 1 || tier.stores != 1 {
		t.Fatalf("fill: network=%d tier-stores=%d, want 1/1", net.count(), tier.stores)
	}

	// A second cache over the same tier (a restarted process): the tier
	// answers, the network is not touched, and the hit counts as a hit.
	cache2 := NewCache()
	cache2.Tier = tier
	f2 := cacheOnly(net, cache2)
	resp, err := f2.Fetch(req)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "network body" {
		t.Fatalf("tier-served body = %q", resp.Body)
	}
	if net.count() != 1 {
		t.Fatalf("tier hit touched the network: %d fetches", net.count())
	}
	if cache2.Hits() != 1 || tier.found != 1 {
		t.Fatalf("hits=%d tier answers=%d, want 1/1", cache2.Hits(), tier.found)
	}
	// Promotion: the page is now in memory; the next fetch does not even
	// consult the tier.
	loadsBefore := tier.loads
	if _, err := f2.Fetch(req); err != nil {
		t.Fatal(err)
	}
	if tier.loads != loadsBefore {
		t.Fatal("memory hit consulted the tier")
	}
	if cache2.Hits() != 2 {
		t.Fatalf("memory hit not counted: hits=%d, want 2", cache2.Hits())
	}
}

func TestCacheClearInvalidatesTier(t *testing.T) {
	tier := newFakeTier()
	cache := NewCache()
	cache.Tier = tier
	f := cacheOnly(&countingFetcher{}, cache)
	if _, err := f.Fetch(NewGet(context.Background(), "http://a.test/1")); err != nil {
		t.Fatal(err)
	}
	if tier.len() != 1 {
		t.Fatalf("tier holds %d entries before clear", tier.len())
	}
	cache.Clear()
	if tier.invalidates != 1 {
		t.Fatalf("Clear did not invalidate the tier: %d", tier.invalidates)
	}
	if tier.len() != 0 {
		t.Fatalf("tier still holds %d entries after clear", tier.len())
	}
}

// TestCacheTierExpiredEntryGoesToNetwork: a tier entry older than MaxAge
// does not satisfy a fetch — the network answers and refreshes both
// tiers — but it does stand in for stale-on-error when the site is down.
func TestCacheTierExpiredEntry(t *testing.T) {
	now := time.Unix(10_000, 0)
	clock := func() time.Time { return now }

	tier := newFakeTier()
	tier.Store(NewGet(context.Background(), "http://a.test/p").Key(),
		HTML("http://a.test/p", "old body"), now.Add(-time.Hour))

	cache := NewCache()
	cache.Tier = tier
	cache.MaxAge = time.Minute
	cache.Clock = clock
	net := &countingFetcher{}
	f := cacheOnly(net, cache)

	resp, err := f.Fetch(NewGet(context.Background(), "http://a.test/p"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "network body" || net.count() != 1 {
		t.Fatalf("expired tier entry served fresh: %q (net=%d)", resp.Body, net.count())
	}
	if cache.Hits() != 0 {
		t.Fatalf("expired tier entry counted as hit")
	}

	// Same setup, but the network is down and stale-on-error is on: the
	// expired tier entry is the last answer standing.
	tier2 := newFakeTier()
	tier2.Store(NewGet(context.Background(), "http://a.test/p").Key(),
		HTML("http://a.test/p", "old body"), now.Add(-time.Hour))
	cache2 := NewCache()
	cache2.Tier = tier2
	cache2.MaxAge = time.Minute
	cache2.AllowStale = true
	cache2.Clock = clock
	f2 := cacheOnly(FetcherFunc(func(req *Request) (*Response, error) {
		return nil, MarkOutage(&HostError{Host: "a.test", Err: ErrCircuitOpen})
	}), cache2)
	resp, err = f2.Fetch(NewGet(context.Background(), "http://a.test/p"))
	if err != nil {
		t.Fatalf("stale-on-error from tier failed: %v", err)
	}
	if string(resp.Body) != "old body" {
		t.Fatalf("stale serve body = %q, want the tier's old body", resp.Body)
	}
	if cache2.Stale() != 1 {
		t.Fatalf("stale counter = %d, want 1", cache2.Stale())
	}
}
