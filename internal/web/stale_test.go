package web

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"webbase/internal/trace"
)

// TestCacheStaleOnError: an expired entry no longer satisfies a fetch
// outright, but when the network path fails it is served as a last
// resort, labeled outcome=stale, and counted.
func TestCacheStaleOnError(t *testing.T) {
	clk := newTick()
	inner := &switchFetcher{}
	cache := NewCache()
	cache.MaxAge = time.Minute
	cache.AllowStale = true
	cache.Clock = clk.Clock()
	f := cacheOnly(inner, cache)
	const url = "http://h/page"

	// Prime the cache, then hit it while fresh.
	if _, err := f.Fetch(NewGet(url)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Fetch(NewGet(url)); err != nil {
		t.Fatal(err)
	}
	if cache.Hits() != 1 || cache.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", cache.Hits(), cache.Misses())
	}

	// Expired + healthy network: refetches rather than serving stale.
	clk.Advance(2 * time.Minute)
	if _, err := f.Fetch(NewGet(url)); err != nil {
		t.Fatal(err)
	}
	if cache.Misses() != 2 || cache.Stale() != 0 {
		t.Fatalf("after expiry: misses=%d stale=%d", cache.Misses(), cache.Stale())
	}

	// Expired + dead network: the stale entry is served with the label.
	clk.Advance(2 * time.Minute)
	inner.down.Store(true)
	tr := trace.New("stale", clk.Clock())
	sp := trace.Start(trace.ContextWith(context.Background(), tr.Root), trace.KindFetch, url)
	req := NewGet(url).WithContext(trace.ContextWith(context.Background(), sp))
	resp, err := f.Fetch(req)
	if err != nil {
		t.Fatalf("stale-on-error did not rescue: %v", err)
	}
	if resp == nil || len(resp.Body) == 0 {
		t.Fatal("empty stale response")
	}
	if cache.Stale() != 1 {
		t.Fatalf("stale = %d", cache.Stale())
	}
	sp.End()
	tr.Root.End()
	if lbl := sp.LabelValue("outcome"); lbl != "stale" {
		t.Fatalf("outcome label = %q, want stale", lbl)
	}
	if age := sp.LabelValue("stale-age"); age == "" {
		t.Fatal("stale-age label missing")
	}

	// Without AllowStale the same failure surfaces.
	cache2 := NewCache()
	cache2.MaxAge = time.Minute
	cache2.Clock = clk.Clock()
	inner2 := &switchFetcher{}
	f2 := cacheOnly(inner2, cache2)
	if _, err := f2.Fetch(NewGet(url)); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Minute)
	inner2.down.Store(true)
	if _, err := f2.Fetch(NewGet(url)); err == nil {
		t.Fatal("expired entry served without AllowStale on a dead network")
	}

	// Cancellation is never papered over with stale data.
	inner.down.Store(false)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	ctxInner := FetcherFunc(func(req *Request) (*Response, error) {
		return nil, req.Context().Err()
	})
	cache3 := NewCache()
	cache3.MaxAge = time.Minute
	cache3.AllowStale = true
	cache3.Clock = clk.Clock()
	f3 := cacheOnly(ctxInner, cache3)
	ok := FetcherFunc(func(req *Request) (*Response, error) {
		return HTML(req.URL, "<html><body>x</body></html>"), nil
	})
	if _, err := cacheOnly(ok, cache3).Fetch(NewGet(url)); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Minute)
	if _, err := f3.Fetch(NewGet(url).WithContext(cancelled)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation rescued by stale entry: %v", err)
	}
}

// TestCacheClearDropsInFlightFill is the generation-number regression
// test: a response that started fetching before Clear() must not be
// stored after it — the clear meant to discard exactly that page.
func TestCacheClearDropsInFlightFill(t *testing.T) {
	cache := NewCache()
	entered := make(chan struct{})
	release := make(chan struct{})
	inner := FetcherFunc(func(req *Request) (*Response, error) {
		close(entered)
		<-release
		return HTML(req.URL, "<html><body>pre-clear</body></html>"), nil
	})
	f := cacheOnly(inner, cache)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := f.Fetch(NewGet("http://h/x")); err != nil {
			t.Errorf("fetch: %v", err)
		}
	}()
	<-entered
	cache.Clear() // the fill is mid-flight; its generation is now stale
	close(release)
	<-done
	if n := cache.Len(); n != 0 {
		t.Fatalf("pre-clear fill resurrected: cache len = %d", n)
	}
}

// TestCacheClearDuringFillRace hammers Clear against concurrent fills
// (run with -race): afterwards every cached entry must be from the
// current generation, i.e. refetchable state only.
func TestCacheClearDuringFillRace(t *testing.T) {
	cache := NewCache()
	inner := okFetcher()
	f := cacheOnly(inner, cache)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				url := "http://h/" + string(rune('a'+g)) + "/x"
				if _, err := f.Fetch(NewGet(url)); err != nil {
					t.Errorf("fetch: %v", err)
					return
				}
				if i%7 == 0 {
					cache.Clear()
				}
			}
		}(g)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}
