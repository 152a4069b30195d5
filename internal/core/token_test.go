package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"webbase/internal/sites"
	"webbase/internal/ur"
)

// tokenOf computes the consistency token of wb's state from scratch, as
// ConsistencyToken did on every call before it kept its last token.
func tokenOf(wb *Webbase) string {
	h := sha256.New()
	gen := wb.stack.Cache.Generation()
	if wb.pageTier != nil {
		gen = wb.pageTier.Generation()
	}
	fmt.Fprintf(h, "cache-gen=%d\n", gen)
	for _, ri := range wb.Registry.Relations() {
		v, fp := wb.Registry.MapVersion(ri.Name)
		fmt.Fprintf(h, "map=%s:%d:%s\n", ri.Name, v, fp)
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:12])
}

// TestConsistencyTokenOncePerChange: the token moves with a map swap, a map
// restore and a cache clear, and with nothing else — a query, a refused
// swap. At every state the token is the one computed from scratch, with
// and without a state dir (whose page tier's generation stands in for the
// cache's).
func TestConsistencyTokenOncePerChange(t *testing.T) {
	for _, stateDir := range []bool{false, true} {
		t.Run(fmt.Sprint("state-dir=", stateDir), func(t *testing.T) {
			cfg := Config{Fetcher: sites.BuildWorld().Server}
			if stateDir {
				cfg.StateDir = t.TempDir()
			}
			wb, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer wb.Close()
			tok := wb.ConsistencyToken()
			// same fails t unless the token is still tok, and tok is the
			// token of the state.
			same := func(what string) {
				t.Helper()
				if got := wb.ConsistencyToken(); got != tok || got != tokenOf(wb) {
					t.Fatalf("after %s the token is %s, want %s (from scratch %s)", what, got, tok, tokenOf(wb))
				}
			}
			// moved fails t unless the token moved to the token of the state.
			moved := func(what string) {
				t.Helper()
				got := wb.ConsistencyToken()
				if got == tok || got != tokenOf(wb) {
					t.Fatalf("after %s the token is %s, want a new one (was %s, from scratch %s)", what, got, tok, tokenOf(wb))
				}
				tok = got
			}
			same("assembly")
			q, err := ur.ParseQuery(wb.UR, "SELECT Make, Model, Price WHERE Make = 'ford' AND Model = 'escort'")
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := wb.Query(context.Background(), q); err != nil {
				t.Fatal(err)
			}
			same("a query")

			const name = "newsday"
			if _, err := wb.Registry.SwapMap(name, wb.Registry.CurrentMap("kellys")); err == nil {
				t.Fatal("a map of another schema was swapped in")
			}
			same("a refused swap")
			if _, err := wb.Registry.SwapMap(name, wb.Registry.CurrentMap(name).Clone()); err != nil {
				t.Fatal(err)
			}
			moved("a swap")
			same("a second call")
			if err := wb.Registry.RestoreMap(name, wb.Registry.CurrentMap(name).Clone(), 7); err != nil {
				t.Fatal(err)
			}
			moved("a restore")
			wb.Cache().Clear()
			moved("a cache clear")
			same("a second call")
		})
	}
}

// TestConsistencyTokenAllocatesNothing: a token whose inputs have not
// changed since the last call is that call's string, read without a digest.
func TestConsistencyTokenAllocatesNothing(t *testing.T) {
	wb, _ := newTestWebbase(t)
	tok := wb.ConsistencyToken()
	if n := testing.AllocsPerRun(100, func() {
		if wb.ConsistencyToken() != tok {
			t.Fatal("the token moved with nothing changed")
		}
	}); n != 0 {
		t.Errorf("an unchanged token costs %.0f allocations, want 0", n)
	}
}
