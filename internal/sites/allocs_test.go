package sites

import (
	"net/url"
	"runtime"
	"testing"

	"webbase/internal/race"
	"webbase/internal/web"
)

// TestRenderAllocs is the ceiling on what rendering a data page may
// allocate, in calls and in bytes, about 10% above what it does: one dealer
// results page and one Newsday results page, each fetched through
// web.Server the way a cache miss fetches it. A page costs its rows, its
// cells' formatted values and the builder's growth — not an escaper built
// per cell, which took the same two pages to 882 allocations and 627 KiB.
func TestRenderAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	srv := BuildWorld().Server
	ford := url.Values{"make": {"ford"}, "model": {"escort"}}
	reqs := []*web.Request{
		web.NewSubmit("http://"+CarPointHost+"/cgi-bin/find", "GET", ford),
		web.NewSubmit("http://"+NewsdayHost+"/cgi-bin/nclassy", "POST", ford),
	}
	render := func() {
		for _, req := range reqs {
			resp, err := srv.Fetch(req)
			if err != nil || !resp.OK() || len(resp.Body) < 1000 {
				t.Fatalf("fetch %s: %v, %+v", req.URL, err, resp)
			}
		}
	}
	const allocCeiling, kbCeiling = 262, 29 // 238 and 26.2 when set
	allocs := testing.AllocsPerRun(50, render)
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		render()
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	t.Logf("two data pages: %.0f allocations (ceiling %d), %.1f KiB (ceiling %d)", allocs, allocCeiling, kb, kbCeiling)
	if allocs > allocCeiling || kb > kbCeiling {
		t.Errorf("rendering two data pages allocates %.0f times and %.1f KiB, ceilings %d and %d KiB", allocs, kb, allocCeiling, kbCeiling)
	}
}
