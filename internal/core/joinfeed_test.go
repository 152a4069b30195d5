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

var updateGoldens = flag.Bool("update", false, "re-record testdata/joinfeed.golden, testdata/expressions.golden and testdata/pages.golden")

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
	if *updateGoldens {
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
// year, because the blue book can forward Year); keeping the pages a query
// reads twice, T3 is 186 (those navigations re-read the blue book's two
// input-free pages from the query's own page set); populating a relation
// both maximal objects read once per distinct inputs, they are 70 and 152
// (the dealer object's blue-book look-ups of a model and year the
// classifieds object already looked up, and its reliability scan, are
// not navigated again).
func TestJoinFeedPageCeilings(t *testing.T) {
	for _, c := range []struct {
		name, query string
		ceiling     int64
	}{
		{"T2 bmw/325i", "SELECT Make, Model, Year, Price, BBPrice WHERE Make='bmw' AND Model='325i' " +
			"AND Condition='good' AND Price < BBPrice", 72},
		{"T3 bmw", "SELECT Make, Model, Year, Price, BBPrice WHERE Make='bmw' AND Year >= 1993 " +
			"AND Safety='good' AND Condition='good' AND Price < BBPrice", 155},
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

// TestDeckPageAccesses pins the page accesses — visits that went to the
// fetch stack: network, cache or an in-flight twin — of the benchmark's
// query deck (bench/deck.go) per query class, exactly, at Workers 1, 2
// and 8, on a cold pass over a fresh webbase and on the warm pass after
// it. A query keeps the page of a request it visits a second time and
// serves every later visit from it, so a request visited n ≥ 2 times
// costs two accesses whatever the schedule. A relation both maximal
// objects read — the blue book in T2 and T3, reliability in T3 — is
// populated once per distinct inputs, which the plan order decides, not
// the schedule. T1 reads no relation twice and stays at 45.208 a query,
// exactly as before anything was shared or kept; T2 falls from 51.208 to
// 48.208; T3 makes 193.125 page visits (278.625 before sharing) for
// 133.625 accesses (164.125).
func TestDeckPageAccesses(t *testing.T) {
	type class struct {
		name    string
		queries []string
		// Summed over the class's queries: page accesses, and visits
		// (accesses plus reused visits: the accesses before any page was kept).
		accesses, visits int64
	}
	t1 := class{name: "T1", accesses: 1085, visits: 1085} // 24 queries, 45.208 each
	t2 := class{name: "T2", accesses: 1157, visits: 1157} // 24 queries, 48.208 each
	t3 := class{name: "T3", accesses: 1069, visits: 1545} // 8 queries, 133.625 of 193.125 each
	for _, mk := range sites.Makes() {
		for _, md := range sites.Catalog[mk] {
			t1.queries = append(t1.queries, fmt.Sprintf("SELECT Make, Model, Year, Price WHERE Make='%s' AND Model='%s'", mk, md))
			t2.queries = append(t2.queries, fmt.Sprintf("SELECT Make, Model, Year, Price, BBPrice WHERE Make='%s' AND Model='%s' "+
				"AND Condition='good' AND Price < BBPrice", mk, md))
		}
		t3.queries = append(t3.queries, fmt.Sprintf("SELECT Make, Model, Year, Price, BBPrice WHERE Make='%s' AND Year >= 1993 "+
			"AND Safety='good' AND Condition='good' AND Price < BBPrice", mk))
	}
	for _, workers := range []int{1, 2, 8} {
		wb, err := New(Config{Fetcher: sites.BuildWorld().Server, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, pass := range []string{"cold", "warm"} {
			for _, c := range []class{t1, t2, t3} {
				var accesses, reused int64
				for _, q := range c.queries {
					_, qs, err := wb.QueryString(q)
					if err != nil {
						t.Fatalf("%s: %v", q, err)
					}
					accesses += qs.Pages + qs.CacheHits + qs.Deduped
					reused += qs.Reused
				}
				if accesses != c.accesses || accesses+reused != c.visits {
					t.Errorf("workers=%d %s pass: %s makes %d page accesses (%.3f a query) and %d visits, want %d and %d",
						workers, pass, c.name, accesses, float64(accesses)/float64(len(c.queries)), accesses+reused, c.accesses, c.visits)
				}
			}
		}
	}
}
