package core

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"webbase/internal/sites"
)

// The answers of every query that feeds a dependent join, pinned with the
// evaluator as it was before joins fed only forwardable attributes
// (recorded at d93c8ba): tuple for tuple, in order. What a join feeds
// decides how many navigations run and in what order their results merge;
// it must not decide the answer.

var updateJoinFeed = flag.Bool("update", false, "re-record testdata/joinfeed.golden")

const joinFeedGolden = "testdata/joinfeed.golden"

// joinFeedQueries is the benchmark's join deck (bench/deck.go: T2 for the
// 24 make/model pairs, T3 for the 8 makes) plus the wide acceptance query
// and one blue-book join per make on a different condition.
func joinFeedQueries() []string {
	makes := sites.Makes()
	sort.Strings(makes)
	var qs []string
	for _, mk := range makes {
		for _, md := range sites.Catalog[mk] {
			qs = append(qs, fmt.Sprintf("SELECT Make, Model, Year, Price, BBPrice WHERE Make='%s' AND Model='%s' "+
				"AND Condition='good' AND Price < BBPrice", mk, md))
		}
		qs = append(qs,
			fmt.Sprintf("SELECT Make, Model, Year, Price, BBPrice WHERE Make='%s' AND Year >= 1993 "+
				"AND Safety='good' AND Condition='good' AND Price < BBPrice", mk),
			fmt.Sprintf("SELECT Make, Model, Year, Price, BBPrice, Contact WHERE Make='%s' AND Condition='fair'", mk))
	}
	return append(qs, wideCarQuery)
}

// joinFeedAnswers renders every query's ordered answer on a fresh webbase.
func joinFeedAnswers(t *testing.T, cfg Config) string {
	t.Helper()
	cfg.Fetcher = sites.BuildWorld().Server
	wb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, q := range joinFeedQueries() {
		res, _, err := wb.QueryString(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		fmt.Fprintf(&sb, "== %s\n%s\n", q, res.Relation)
	}
	return sb.String()
}

func TestJoinFeedGolden(t *testing.T) {
	if *updateJoinFeed {
		if err := os.WriteFile(joinFeedGolden, []byte(joinFeedAnswers(t, Config{Workers: 1})), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(joinFeedGolden)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		for _, prune := range []bool{false, true} {
			got := joinFeedAnswers(t, Config{Workers: workers, Prune: prune})
			if got != string(want) {
				t.Errorf("workers=%d prune=%v: answers differ from %s (re-record with -update only if the change is meant)\n%s",
					workers, prune, joinFeedGolden, firstDiff(string(want), got))
			}
		}
	}
}

// firstDiff shows the first line at which two renderings part.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d\n--- want ---\n%s\n--- got ---\n%s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("lengths differ: want %d lines, got %d", len(w), len(g))
}

// TestJoinFeedPageCeilings is the deterministic count gate, in the spirit
// of the allocation ceilings: page accesses (misses plus cache hits) of
// one T2 and one T3 query on a fresh sequential webbase. Feeding every
// shared attribute these were 423 and 322; feeding only forwardable ones
// they are 73 and 310 (T3 keeps one blue-book navigation per model and
// year, because the blue book can forward Year).
func TestJoinFeedPageCeilings(t *testing.T) {
	for _, c := range []struct {
		name, query string
		ceiling     int64
	}{
		{"T2 bmw/325i", "SELECT Make, Model, Year, Price, BBPrice WHERE Make='bmw' AND Model='325i' " +
			"AND Condition='good' AND Price < BBPrice", 75},
		{"T3 bmw", "SELECT Make, Model, Year, Price, BBPrice WHERE Make='bmw' AND Year >= 1993 " +
			"AND Safety='good' AND Condition='good' AND Price < BBPrice", 315},
	} {
		wb, err := New(Config{Fetcher: sites.BuildWorld().Server, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, qs, err := wb.QueryString(c.query)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := qs.Pages + qs.CacheHits; got > c.ceiling {
			t.Errorf("%s: %d page accesses, ceiling %d", c.name, got, c.ceiling)
		} else {
			t.Logf("%s: %d page accesses (ceiling %d)", c.name, got, c.ceiling)
		}
	}
}
