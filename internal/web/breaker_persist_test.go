package web

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"
)

// tripBreaker drives a breaker's circuit for host open with failures.
func tripBreaker(t *testing.T, br *Breaker, host string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		br.Fetch(NewGet(context.Background(), "http://"+host+"/p"))
	}
	if br.State(host) != BreakerOpen {
		t.Fatalf("circuit for %s = %v after %d failures, want open", host, br.State(host), n)
	}
}

func failingFetcher() Fetcher {
	return FetcherFunc(func(req *Request) (*Response, error) {
		return nil, MarkOutage(&HostError{Host: hostOf(req.URL), Err: errors.New("down")})
	})
}

func TestBreakerSnapshotRestore(t *testing.T) {
	now := time.Unix(50_000, 0)
	clock := func() time.Time { return now }
	var changes []string
	br := NewBreaker(failingFetcher(), 0.5, clock, nil)
	br.OnChange = func(host string, state BreakerState) {
		changes = append(changes, host+":"+state.String())
	}
	tripBreaker(t, br, "dead.test", breakerWindow)
	br.Fetch(NewGet(context.Background(), "http://alive.test/p")) // one failure: still closed

	if len(changes) != 1 || changes[0] != "dead.test:open" {
		t.Fatalf("OnChange fired %v, want exactly [dead.test:open]", changes)
	}

	// Snapshot holds only the open circuit, and survives the JSON
	// round-trip the durable store uses.
	snap := br.Snapshot()
	if len(snap) != 1 || snap["dead.test"].State != "open" || snap["dead.test"].Opens != 1 {
		t.Fatalf("snapshot = %+v, want only dead.test open with opens=1", snap)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]BreakerSnapshot
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh breaker restored from the snapshot fails fast
	// without a single network fetch to the dead host.
	calls := 0
	br2 := NewBreaker(FetcherFunc(func(req *Request) (*Response, error) {
		calls++
		return HTML(req.URL, "ok"), nil
	}), 0.5, clock, nil)
	br2.Restore(decoded)
	if br2.State("dead.test") != BreakerOpen {
		t.Fatalf("restored state = %v, want open", br2.State("dead.test"))
	}
	if _, err := br2.Fetch(NewGet(context.Background(), "http://dead.test/p")); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("restored circuit admitted a fetch: %v", err)
	}
	if calls != 0 {
		t.Fatalf("restored open circuit let %d fetches through", calls)
	}
	if br2.Opens("dead.test") != 1 {
		t.Fatalf("lifetime opens not restored: %d", br2.Opens("dead.test"))
	}
	// The healthy host is untouched by the restore.
	if _, err := br2.Fetch(NewGet(context.Background(), "http://alive.test/p")); err != nil {
		t.Fatalf("unrelated host affected by restore: %v", err)
	}
}

// TestBreakerRestoreElapsedCooldown: the original openedAt is kept, so a
// cooldown that elapsed while the process was down means the first fetch
// after restart is a half-open probe — persistence never delays recovery.
func TestBreakerRestoreElapsedCooldown(t *testing.T) {
	now := time.Unix(50_000, 0)
	br := NewBreaker(FetcherFunc(func(req *Request) (*Response, error) {
		return HTML(req.URL, "recovered"), nil
	}), 0.5, func() time.Time { return now }, nil)
	br.Restore(map[string]BreakerSnapshot{
		"dead.test": {State: "open", OpenedAt: now.Add(-time.Hour), Opens: 3},
	})
	resp, err := br.Fetch(NewGet(context.Background(), "http://dead.test/p"))
	if err != nil || string(resp.Body) != "recovered" {
		t.Fatalf("elapsed-cooldown probe = (%v, %v), want success", resp, err)
	}
	if br.State("dead.test") != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", br.State("dead.test"))
	}
}

// TestBreakerRestoreIsIgnoredOnLiveCircuit: restore never clobbers a
// circuit that has already seen traffic, and garbage states are ignored.
func TestBreakerRestoreIsIgnoredOnLiveCircuit(t *testing.T) {
	br := NewBreaker(FetcherFunc(func(req *Request) (*Response, error) {
		return HTML(req.URL, "ok"), nil
	}), 0.5, nil, nil)
	if _, err := br.Fetch(NewGet(context.Background(), "http://live.test/p")); err != nil {
		t.Fatal(err)
	}
	br.Restore(map[string]BreakerSnapshot{
		"live.test": {State: "open", OpenedAt: time.Unix(1, 0)},
		"odd.test":  {State: "wedged"}, // unknown state string: ignored
	})
	if br.State("live.test") != BreakerClosed {
		t.Fatal("restore clobbered a circuit with live traffic")
	}
	if br.State("odd.test") != BreakerClosed {
		t.Fatal("garbage snapshot state restored")
	}
}
