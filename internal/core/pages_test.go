package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"webbase/internal/htmlkit"
	"webbase/internal/sites"
	"webbase/internal/web"
)

// The simulated Web's pages, pinned byte for byte: every distinct request
// one pass of the benchmark's query deck (T1, T2 and T3, bench/deck.go)
// sends to the sites, plus every page reachable by links alone from the
// twelve home pages (entry, form and directory pages, the paginated
// listings behind them and the 404s of the page furniture). A line is the
// sha256 of the page's status, URL and body, then its request key.
// Rendering may get cheaper; it may not change a byte.

const pagesGolden = "testdata/pages.golden"

// recordPages returns the golden's text: one line per distinct request,
// sorted by key, and the number of requests the deck pass sent.
func recordPages(t *testing.T) (string, int) {
	t.Helper()
	srv := sites.BuildWorld().Server
	var mu sync.Mutex
	sums := make(map[string]string)
	record := func(key string, resp *web.Response) {
		h := sha256.New()
		fmt.Fprintf(h, "%d\n%s\n", resp.Status, resp.URL)
		h.Write(resp.Body)
		sum := fmt.Sprintf("%x", h.Sum(nil))
		mu.Lock()
		defer mu.Unlock()
		if old, ok := sums[key]; ok && old != sum {
			t.Errorf("%s: two fetches rendered different pages", key)
		}
		sums[key] = sum
	}
	fetcher := web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		resp, err := srv.Fetch(req)
		if err == nil {
			record(req.Key(), resp)
		}
		return resp, err
	})

	wb, err := New(Config{Fetcher: fetcher, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var deck []string
	for _, mk := range sites.Makes() {
		for _, md := range sites.Catalog[mk] {
			deck = append(deck, fmt.Sprintf("SELECT Make, Model, Year, Price WHERE Make='%s' AND Model='%s'", mk, md))
		}
	}
	for _, mk := range sites.Makes() {
		for _, md := range sites.Catalog[mk] {
			deck = append(deck, fmt.Sprintf("SELECT Make, Model, Year, Price, BBPrice WHERE Make='%s' AND Model='%s' "+
				"AND Condition='good' AND Price < BBPrice", mk, md))
		}
	}
	for _, mk := range sites.Makes() {
		deck = append(deck, fmt.Sprintf("SELECT Make, Model, Year, Price, BBPrice WHERE Make='%s' AND Year >= 1993 "+
			"AND Safety='good' AND Condition='good' AND Price < BBPrice", mk))
	}
	for _, q := range deck {
		if _, _, err := wb.QueryString(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	deckPages := len(sums)

	// Crawl each site by its links, from its home page.
	for _, host := range srv.Hosts() {
		queue := []string{"http://" + host + "/"}
		seen := map[string]bool{queue[0]: true}
		for len(queue) > 0 {
			req := web.NewGet(context.Background(), queue[0])
			queue = queue[1:]
			resp, err := srv.Fetch(req)
			if err != nil {
				t.Fatalf("%s: %v", req.URL, err)
			}
			record(req.Key(), resp)
			if !resp.OK() {
				continue
			}
			for _, l := range htmlkit.Links(htmlkit.Parse(resp.Body)) {
				addr := htmlkit.Resolve(req.URL, l.Href)
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
	return sb.String(), deckPages
}

func TestPagesGolden(t *testing.T) {
	got, deckPages := recordPages(t)
	if deckPages != 1399 {
		t.Errorf("the deck pass fetched %d distinct pages, want 1399", deckPages)
	}
	if *updateGoldens {
		if err := os.WriteFile(pagesGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(pagesGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("rendered pages differ from %s (re-record with -update only if the change is meant)\n%s",
			pagesGolden, firstDiff(string(want), got))
	}
}
