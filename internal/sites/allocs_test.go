package sites

import (
	"context"
	"runtime"
	"testing"

	"webbase/internal/race"
	"webbase/internal/web"
)

// TestRenderAllocs is the ceiling on what rendering a page may allocate,
// in calls and in bytes, about 10% above what it does, each page fetched
// through web.Server the way a cache miss fetches it: one dealer results
// page and one Newsday results page, then a form page (Kelly's: a select,
// a radio group, title-cased options) and a directory page (Yahoo's list
// of makes, a link each). A page costs its request's one URL parse, its
// builder, its response and one body of exactly its length, and a data page
// the list of its matching ads — not a fragment formatted through fmt, a
// builder grown by doubling, a copy of each matching ad or a second URL
// parse, which took the two data pages to 226 allocations and 25.2 KiB.
func TestRenderAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	srv := BuildWorld().Server
	get := func(url string) *web.Request { return web.NewGet(context.Background(), url) }
	for _, c := range []struct {
		name                    string
		reqs                    []*web.Request
		allocCeiling, kbCeiling float64
	}{
		{"two data pages", []*web.Request{
			submit("http://"+CarPointHost+"/cgi-bin/find", "GET", "make", "ford", "model", "escort"),
			submit("http://"+NewsdayHost+"/cgi-bin/nclassy", "POST", "make", "ford", "model", "escort"),
		}, 11, 3.7}, // 10 and 3.3 when set
		{"a form page and a directory page", []*web.Request{
			get("http://" + KellysHost + "/usedcar"),
			get("http://" + YahooCarsHost + "/"),
		}, 9, 2.8}, // 8 and 2.5 when set
	} {
		render := func() {
			for _, req := range c.reqs {
				resp, err := srv.Fetch(req)
				if err != nil || !resp.OK() || len(resp.Body) < 500 { // an error page is about 330 bytes
					t.Fatalf("fetch %s: %v, %+v", req.URL, err, resp)
				}
				if len(resp.Body) != cap(resp.Body) {
					t.Fatalf("fetch %s: a body of %d bytes with capacity %d", req.URL, len(resp.Body), cap(resp.Body))
				}
			}
		}
		allocs := testing.AllocsPerRun(50, render)
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			render()
		}
		runtime.ReadMemStats(&after)
		kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
		t.Logf("%s: %.0f allocations (ceiling %.0f), %.1f KiB (ceiling %.1f)", c.name, allocs, c.allocCeiling, kb, c.kbCeiling)
		if allocs > c.allocCeiling || kb > c.kbCeiling {
			t.Errorf("rendering %s allocates %.0f times and %.1f KiB, ceilings %.0f and %.1f KiB", c.name, allocs, kb, c.allocCeiling, c.kbCeiling)
		}
	}
}
