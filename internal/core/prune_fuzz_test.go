package core

import (
	"context"
	"sync"
	"testing"

	"webbase/internal/sites"
	"webbase/internal/ur"
)

var pruneFuzzOnce sync.Once
var pruneFuzzOff, pruneFuzzOn *Webbase

func pruneFuzzSystems(tb testing.TB) (*Webbase, *Webbase) {
	pruneFuzzOnce.Do(func() {
		var err error
		pruneFuzzOff, err = New(Config{Fetcher: sites.BuildWorld().Server, Workers: 2})
		if err != nil {
			tb.Fatal(err)
		}
		pruneFuzzOn, err = New(Config{Fetcher: sites.BuildWorld().Server, Workers: 2, Prune: true})
		if err != nil {
			tb.Fatal(err)
		}
	})
	return pruneFuzzOff, pruneFuzzOn
}

// FuzzPrunedQuery is the pruning safety net beyond the hand-written
// corpus: for any query text that parses and evaluates over the healthy
// simulated Web, the pruned answer must be byte-identical to the unpruned
// one — never more tuples than LIMIT allows, never fewer than the
// unpruned evaluation found. The two systems are built once and shared
// across iterations; answers do not depend on cache state, so warmth
// cannot mask a divergence.
func FuzzPrunedQuery(f *testing.F) {
	seeds := []string{
		"SELECT Make, Model, Year, Price WHERE Make = 'ford'",
		"SELECT Make, Model, Year, Price WHERE Make = 'ford' LIMIT 1",
		"SELECT Make, Model, Year, Price WHERE Make = 'ford' LIMIT 3",
		"SELECT Make, Model WHERE Make = 'jaguar' AND Make = 'ford'",
		"SELECT Make, Model, Year WHERE Make = 'ford' AND Year >= 1995 AND Year <= 1992",
		"SELECT Make, Model, Price WHERE Make = 'jaguar' ORDER BY Make LIMIT 2",
		"SELECT Make, Model, Price WHERE Make = 'ford' ORDER BY Price DESC LIMIT 2",
		"SELECT Make, Model, Year, Price, BBPrice, Contact WHERE Make = 'jaguar' AND Year >= 1993 " +
			"AND Safety = 'good' AND Condition = 'good' AND Price < BBPrice",
		"SELECT Make, Model, Safety WHERE Make = 'honda' LIMIT 0",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		off, on := pruneFuzzSystems(t)
		q, err := ur.ParseQuery(off.UR, text)
		if err != nil {
			return // not a runnable query; the parser fuzzer owns this space
		}
		resOff, _, errOff := off.Query(context.Background(), q)
		resOn, qsOn, errOn := on.Query(context.Background(), q)
		// Pruning only removes fetches, so it can never introduce a
		// failure. The converse is legal: a query whose every maximal
		// object would fail (e.g. a nonsense constant that breaks
		// navigation on all sites) errors unpruned, but when the clause is
		// provably unsatisfiable the pruned run skips those doomed
		// accesses and proves the empty answer instead — that is the
		// pruned-before-failure semantics, and it requires pruning to
		// actually have fired.
		if errOn != nil && errOff == nil {
			t.Fatalf("%q: pruning introduced an error: %v", text, errOn)
		}
		if errOff != nil {
			if errOn == nil && qsOn.PrunedFetches == 0 {
				t.Fatalf("%q: error divergence without any pruning decision: off=%v", text, errOff)
			}
			return
		}
		if q.Limit > 0 && resOn.Relation.Len() > q.Limit {
			t.Fatalf("%q: pruned answer exceeds LIMIT %d: %d tuples", text, q.Limit, resOn.Relation.Len())
		}
		if resOn.Relation.String() != resOff.Relation.String() {
			t.Fatalf("%q: pruned answer diverges\n--- prune=off ---\n%s\n--- prune=on ---\n%s",
				text, resOff.Relation, resOn.Relation)
		}
	})
}
