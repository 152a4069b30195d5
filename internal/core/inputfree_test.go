package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"webbase/internal/sites"
	"webbase/internal/web"
)

// The memory tier keeps the parsed page of each input-free request on its
// cached response (DESIGN.md §6). How many there are depends on the
// navigation maps, not on the data: a deck pass leaves exactly the
// input-free request keys carrying a parsed page, and a second pass adds
// none.

// responseLog records the latest response the sites served for each
// request key: below the page cache, so it is the response the cache
// holds.
type responseLog struct {
	inner web.Fetcher
	mu    sync.Mutex
	byKey map[string]*web.Response
}

func (l *responseLog) Fetch(req *web.Request) (*web.Response, error) {
	resp, err := l.inner.Fetch(req)
	if err == nil {
		l.mu.Lock()
		l.byKey[req.Key()] = resp
		l.mu.Unlock()
	}
	return resp, err
}

// parsed returns the keys whose response carries a parsed page, sorted,
// and how many responses were logged.
func (l *responseLog) parsed() ([]string, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var keys []string
	for k, resp := range l.byKey {
		if _, ok := resp.PeekDerived(); ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys, len(l.byKey)
}

// count returns how many logged request keys contain part.
func (l *responseLog) count(part string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for k := range l.byKey {
		if strings.Contains(k, part) {
			n++
		}
	}
	return n
}

// deckQueries returns the benchmark's T1 lookup deck, or its join deck (T2
// for the 24 make/model pairs, T3 for the 8 makes).
func deckQueries(joins bool) []string {
	makes := sites.Makes()
	sort.Strings(makes)
	var qs []string
	for _, mk := range makes {
		for _, md := range sites.Catalog[mk] {
			if joins {
				qs = append(qs, fmt.Sprintf("SELECT Make, Model, Year, Price, BBPrice WHERE Make='%s' AND Model='%s' "+
					"AND Condition='good' AND Price < BBPrice", mk, md))
			} else {
				qs = append(qs, fmt.Sprintf("SELECT Make, Model, Year, Price WHERE Make='%s' AND Model='%s'", mk, md))
			}
		}
		if joins {
			qs = append(qs, fmt.Sprintf("SELECT Make, Model, Year, Price, BBPrice WHERE Make='%s' AND Year >= 1993 "+
				"AND Safety='good' AND Condition='good' AND Price < BBPrice", mk))
		}
	}
	return qs
}

// TestInputFreePagesBounded: one deck pass leaves a parsed page on the
// responses of exactly the deck's input-free requests — the site entry
// pages and the pages behind their literal links — 9 on the T1 deck and
// 13 on the join deck; a second pass adds none. The newsday features
// pages, entered at a URL the query supplies, carry none.
func TestInputFreePagesBounded(t *testing.T) {
	t1 := []string{
		"GET http://autoweb.example/?",
		"GET http://autoweb.example/used?",
		"GET http://carpoint.example/?",
		"GET http://newsday.example/?",
		"GET http://newsday.example/auto?",
		"GET http://nytimes.example/?",
		"GET http://nytimes.example/classified?",
		"GET http://wwwheels.example/?",
		"GET http://yahoocars.example/?",
	}
	join := append(slices.Clone(t1),
		"GET http://caranddriver.example/?",
		"GET http://caranddriver.example/safety?",
		"GET http://kbb.example/?",
		"GET http://kbb.example/usedcar?",
	)
	sort.Strings(join)
	for _, deck := range []struct {
		name  string
		joins bool
		want  []string
	}{
		{"T1", false, t1},
		{"join", true, join},
	} {
		log := &responseLog{inner: sites.BuildWorld().Server, byKey: map[string]*web.Response{}}
		wb, err := New(Config{Fetcher: log, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for pass := 1; pass <= 2; pass++ {
			for _, q := range deckQueries(deck.joins) {
				if _, _, err := wb.QueryString(q); err != nil {
					t.Fatalf("%s: %v", q, err)
				}
			}
			got, responses := log.parsed()
			if !slices.Equal(got, deck.want) {
				t.Errorf("%s deck, pass %d: %d of %d cached responses carry a parsed page:\n%s\nwant the %d input-free requests:\n%s",
					deck.name, pass, len(got), responses, strings.Join(got, "\n"), len(deck.want), strings.Join(deck.want, "\n"))
			}
			if log.count("features?id=") == 0 {
				t.Errorf("%s deck: no newsday features page was fetched, so none was seen to carry no parsed page", deck.name)
			}
		}
	}
}
