package server

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"webbase/internal/core"
	"webbase/internal/sites"
	"webbase/internal/web"
)

// TestTenantMaxConcurrent: a tenant at its per-tenant concurrency cap is
// shed with 429/"tenant-saturated" — and, unlike a served query, the shed
// does not spend quota. The slot is held for the whole stream, not just
// admission.
func TestTenantMaxConcurrent(t *testing.T) {
	world := sites.BuildWorld()
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	blocking := web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return world.Server.Fetch(req)
	})
	ts, _ := newCarServer(t, core.Config{Fetcher: blocking}, Config{
		Tenants: []Tenant{{Key: "alicekey", Name: "alice",
			Quota: 2, Window: time.Hour, MaxConcurrent: 1}},
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp := postQuery(t, ts.URL, "alicekey", carQuery)
		io.Copy(io.Discard, resp.Body)
	}()
	<-started // alice's only slot is now owned by a mid-stream query

	resp := postQuery(t, ts.URL, "alicekey", carQuery)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429", resp.StatusCode)
	}
	if got := envelope(t, resp); got.Code != "tenant-saturated" {
		t.Errorf("code = %q, want tenant-saturated", got.Code)
	}

	close(release)
	wg.Wait()

	// The shed must not have spent quota: with Quota=2 and one query
	// served, one full budget unit remains.
	resp = postQuery(t, ts.URL, "alicekey", carQuery)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release query status = %d, want 200 (shed spent quota?)", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	// And the budget is now genuinely gone — accounting is exact.
	resp = postQuery(t, ts.URL, "alicekey", carQuery)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status = %d, want 429", resp.StatusCode)
	}
	if got := envelope(t, resp); got.Code != "quota-exhausted" {
		t.Errorf("code = %q, want quota-exhausted", got.Code)
	}

	wantSeries(t, fetchMetrics(t, ts.URL), map[string]float64{
		`server_queries_served_total{tenant="alice"}`: 2,
		`server_queries_shed_total{tenant="alice"}`:   2, // saturated + over-quota
	})
}

// TestTenantMaxConcurrentZeroIsUnlimited: the zero value keeps the
// historical behavior — no concurrency cap.
func TestTenantMaxConcurrentZeroIsUnlimited(t *testing.T) {
	world := sites.BuildWorld()
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	blocking := web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return world.Server.Fetch(req)
	})
	ts, _ := newCarServer(t, core.Config{Fetcher: blocking}, Config{
		Tenants: []Tenant{{Key: "bobkey", Name: "bob"}},
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp := postQuery(t, ts.URL, "bobkey", carQuery)
		io.Copy(io.Discard, resp.Body)
	}()
	<-started
	// A second concurrent query is admitted (it blocks on the same
	// fetcher, so only check the status line arrives before release).
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/query", strings.NewReader(carQuery))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer bobkey")
	wg.Add(1)
	var second *http.Response
	go func() {
		defer wg.Done()
		second, err = http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, second.Body)
			second.Body.Close()
		}
	}()
	close(release)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if second.StatusCode != http.StatusOK {
		t.Fatalf("uncapped concurrent query status = %d, want 200", second.StatusCode)
	}
}
