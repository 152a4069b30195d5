package apartments

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"webbase/internal/core"
	"webbase/internal/htmlkit"
	"webbase/internal/navmap"
	"webbase/internal/relation"
	"webbase/internal/web"
)

// The apartment Web's pages, pinned byte for byte: every distinct request
// the package's queries send to the four sites (the queries of
// TestApartmentHeadlineQuery, TestBrokeredFeeQuery and
// TestListingsRelaxedUnion, and each map run as TestMapsTranslateAndRun
// runs it), plus every page reachable by links alone from the four home
// pages. A line is the sha256 of the page's status, URL and body, then its
// request key.

var updatePages = flag.Bool("update", false, "rewrite testdata/pages.golden")

const pagesGolden = "testdata/pages.golden"

func TestPagesGolden(t *testing.T) {
	w := BuildWorld()
	var mu sync.Mutex
	sums := make(map[string]string)
	record := func(key string, resp *web.Response) {
		h := sha256.New()
		fmt.Fprintf(h, "%d\n%s\n", resp.Status, resp.URL)
		h.Write(resp.Body)
		mu.Lock()
		defer mu.Unlock()
		sums[key] = fmt.Sprintf("%x", h.Sum(nil))
	}
	fetcher := web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		resp, err := w.Server.Fetch(req)
		if err == nil {
			record(req.Key(), resp)
		}
		return resp, err
	})

	sys, err := core.NewDomain(core.Config{Fetcher: fetcher, Workers: 1}, domain())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT Neighborhood, Rent, MedianRent, CrimeRate, Contact WHERE Borough = 'brooklyn' AND Bedrooms = 2 " +
			"AND Rent < MedianRent AND CrimeRate <= 5 ORDER BY Rent",
		"SELECT Neighborhood, Rent, Fee WHERE Borough = 'queens' AND Bedrooms = 1 AND Fee < 120",
	} {
		if _, _, err := sys.QueryString(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	for _, in := range []map[string]relation.Value{
		{"Borough": relation.String("bronx")},
		{"Borough": relation.String("bronx"), "Bedrooms": relation.Int(1)},
	} {
		if _, err := sys.Logical.Populate(context.Background(), "listings", in); err != nil {
			t.Fatal(err)
		}
	}
	for name, m := range Maps() {
		expr, err := navmap.Translate(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, _, err := expr.Execute(context.Background(), fetcher, map[string]string{"Borough": "brooklyn", "Bedrooms": "2"}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	for _, host := range w.Server.Hosts() {
		queue := []string{"http://" + host + "/"}
		seen := map[string]bool{queue[0]: true}
		for len(queue) > 0 {
			resp, err := fetcher.Fetch(web.NewGet(context.Background(), queue[0]))
			if err != nil {
				t.Fatalf("%s: %v", queue[0], err)
			}
			base := queue[0]
			queue = queue[1:]
			if !resp.OK() {
				continue
			}
			for _, l := range htmlkit.Links(htmlkit.Parse(resp.Body)) {
				addr := htmlkit.Resolve(base, l.Href)
				if u, err := url.Parse(addr); err == nil && u.Host == host && !seen[addr] {
					seen[addr] = true
					queue = append(queue, addr)
				}
			}
		}
	}

	keys := make([]string, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s %s\n", sums[k], k)
	}
	got := sb.String()
	if *updatePages {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pagesGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(pagesGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("rendered pages differ from %s at line %d (re-record with -update only if the change is meant)\n got: %s\nwant: %s", pagesGolden, i+1, g[i], w[i])
			}
		}
		t.Fatalf("rendered pages differ from %s: %d lines, want %d", pagesGolden, len(g), len(w))
	}
}
