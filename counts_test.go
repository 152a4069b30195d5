package webbase_test

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"webbase"
	"webbase/internal/race"
	"webbase/internal/sites"
)

// The query templates of the benchmark's decks, copied from the constants
// t1, t2 and t3 of bench/deck.go, which is package main and so cannot be
// imported; TestDeckTemplatesAreTheBenchmarks holds the copies to them.
const (
	deckT1 = "SELECT Make, Model, Year, Price WHERE Make='%s' AND Model='%s'"
	deckT2 = "SELECT Make, Model, Year, Price, BBPrice WHERE Make='%s' AND Model='%s' AND Condition='good' AND Price < BBPrice"
	deckT3 = "SELECT Make, Model, Year, Price, BBPrice WHERE Make='%s' AND Year >= 1993 AND Safety='good' AND Condition='good' AND Price < BBPrice"
)

// benchDeck is bench/deck.go's buildDeck: one deck pass, shuffled by seed.
// The T1 deck is one lookup a catalog model; the join deck one T2 a model
// and one T3 a make.
func benchDeck(joins bool, seed int64) []string {
	makes := sites.Makes()
	sort.Strings(makes)
	var deck []string
	for _, mk := range makes {
		for _, md := range sites.Catalog[mk] {
			if joins {
				deck = append(deck, fmt.Sprintf(deckT2, mk, md))
			} else {
				deck = append(deck, fmt.Sprintf(deckT1, mk, md))
			}
		}
		if joins {
			deck = append(deck, fmt.Sprintf(deckT3, mk))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// TestDeckTemplatesAreTheBenchmarks: the templates copied here are the
// benchmark's, and the decks built from them over sites.Catalog hold the
// queries the benchmark's do: a T1 and a T2 for every model, a T3 for every
// make.
func TestDeckTemplatesAreTheBenchmarks(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "bench/deck.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	source := map[string]string{}
	for _, d := range f.Decls {
		g, ok := d.(*ast.GenDecl)
		if !ok || g.Tok != token.CONST {
			continue
		}
		for _, spec := range g.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if lit, ok := vs.Values[i].(*ast.BasicLit); ok {
					source[name.Name], _ = strconv.Unquote(lit.Value)
				}
			}
		}
	}
	for name, copied := range map[string]string{"t1": deckT1, "t2": deckT2, "t3": deckT3} {
		if source[name] != copied {
			t.Errorf("bench/deck.go's %s is %q, the copy here %q", name, source[name], copied)
		}
	}

	want := map[string]int{}
	models := 0
	for mk, mds := range sites.Catalog {
		for _, md := range mds {
			want[fmt.Sprintf(deckT1, mk, md)]++
			want[fmt.Sprintf(deckT2, mk, md)]++
			models++
		}
		want[fmt.Sprintf(deckT3, mk)]++
	}
	got := map[string]int{}
	t1, joins := benchDeck(false, 1), benchDeck(true, 1)
	for _, q := range append(t1, joins...) {
		got[q]++
	}
	if len(t1) != models || len(joins) != models+len(sites.Catalog) || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("the decks hold %d and %d queries over %d models and %d makes, not one of each", len(t1), len(joins), models, len(sites.Catalog))
	}
}

// TestWarmDeckAllocs holds what the benchmark's warm workloads read per
// query, in tier-1: the T1 deck (nav_warm) and the join deck (join_warm),
// each run warm through webbase.New and the streaming query path, at
// Workers 1 and 2. It holds the allocations a query at a ceiling about 2%
// above what they read, and the fetches a query, from each query's bill,
// exactly: a warm deck fetches every page from the cache.
func TestWarmDeckAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, c := range []struct {
		name    string
		joins   bool
		workers int
		ceiling float64 // allocations a query
		fetches float64 // a query, from the bill
	}{
		// 175.3, 181.2, 370.0 and 376.0 when set; 200.5, 207.5, 415.3 and
		// 422.4 while every extracting page made its own slab of values
		// and its state's list of tuples, every union and dependent join
		// its ForEach closure, and every shared or compiled-plan look-up
		// its key.
		{"nav_warm", false, 1, 179, 1085.0 / 24},
		{"nav_warm", false, 2, 185, 1085.0 / 24},
		{"join_warm", true, 1, 377.5, 2226.0 / 32},
		{"join_warm", true, 2, 383.5, 2226.0 / 32},
	} {
		t.Run(fmt.Sprintf("%s/workers=%d", c.name, c.workers), func(t *testing.T) {
			sys, err := webbase.New(webbase.Config{Fetcher: sites.BuildWorld().Server, Workers: c.workers})
			if err != nil {
				t.Fatal(err)
			}
			deck := benchDeck(c.joins, 1)
			ctx := context.Background()
			var fetched int64
			pass := func() {
				for _, text := range deck {
					q, err := webbase.ParseQuery(sys, text)
					if err != nil {
						t.Fatal(err)
					}
					_, stats, err := sys.QueryStream(ctx, q, func(webbase.ObjectDelivery) {})
					if err != nil {
						t.Fatalf("%s: %v", text, err)
					}
					fetched += stats.Pages + stats.CacheHits
				}
			}
			pass()
			pass() // warm: every page cached, every shape compiled
			fetched = 0
			const runs = 4
			perQuery := testing.AllocsPerRun(runs, pass) / float64(len(deck))
			fetches := float64(fetched) / float64((runs+1)*len(deck))
			t.Logf("%.1f allocations and %.4f fetches a query (ceiling %.1f, want %.4f)", perQuery, fetches, c.ceiling, c.fetches)
			if perQuery > c.ceiling {
				t.Errorf("a warm query allocates %.1f times, ceiling %.1f", perQuery, c.ceiling)
			}
			if fetches != c.fetches {
				t.Errorf("a warm query fetches %.4f pages, want %.4f", fetches, c.fetches)
			}
		})
	}
}
