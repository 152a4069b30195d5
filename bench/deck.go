package main

import (
	"fmt"
	"math/rand"
	"sort"

	"webbase/internal/sites"
)

// The query deck. Constants come from sites.Catalog; the seed only
// shuffles their order, so every seed runs the same population of
// queries and the per-query metrics of two seeds are comparable. The
// program under test sees nothing but the generated query text.
const (
	// t1 is a lookup: two maximal objects (classifieds, dealers), a
	// union, no join.
	t1 = "SELECT Make, Model, Year, Price WHERE Make='%s' AND Model='%s'"
	// t2 adds a dependent join into the blue book per upstream tuple.
	t2 = "SELECT Make, Model, Year, Price, BBPrice WHERE Make='%s' AND Model='%s' AND Condition='good' AND Price < BBPrice"
	// t3 is the paper's headline query for one make.
	t3 = "SELECT Make, Model, Year, Price, BBPrice WHERE Make='%s' AND Year >= 1993 AND Safety='good' AND Condition='good' AND Price < BBPrice"
)

// buildDeck returns one deck pass for the workload: 24 T1 queries, or
// 24 T2 followed by 8 T3 shuffled together. Decks are homogeneous in cost
// class so that p50 and p90 never sit on the gap between two classes.
func buildDeck(w workloadSpec, seed int64) []string {
	makes := sites.Makes()
	sort.Strings(makes)
	var deck []string
	for _, mk := range makes {
		for _, md := range sites.Catalog[mk] {
			if w.Joins {
				deck = append(deck, fmt.Sprintf(t2, mk, md))
			} else {
				deck = append(deck, fmt.Sprintf(t1, mk, md))
			}
		}
		if w.Joins {
			deck = append(deck, fmt.Sprintf(t3, mk))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}
