package once

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webbase/internal/race"
)

var errDown = errors.New("down")

// The three rules the table serves: the singleflight's, the outage memo's
// and the kept pages' and shared relations' (Successes).
var rules = []struct {
	name string
	rule func(int, error) (share, keep bool)
}{
	{"every result, nothing kept", func(int, error) (bool, bool) { return true, false }},
	{"failures", func(_ int, err error) (bool, bool) { return err != nil, err != nil }},
	{"successes", Successes[int]},
}

// describe renders one Do's result.
func describe(v int, joined bool, err error) string {
	how := "ran"
	if joined {
		how = "took"
	}
	if err != nil {
		return how + " " + err.Error()
	}
	return fmt.Sprintf("%s %d", how, v)
}

// waiting reports whether a caller is waiting on key's run.
func (t *Table[V]) waiting(key string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.runs[key]
	return r != nil && r.done != nil
}

// TestTableRules: for each rule, what a waiter and a later caller get after
// the run they meet succeeds, fails, fails once its caller is cancelled, or
// succeeds once its caller is cancelled. The leader's run returns 1 or down,
// the waiter's 2 and the later caller's 3.
func TestTableRules(t *testing.T) {
	outcomes := []struct {
		name   string
		cancel bool
		err    error
	}{
		{"success", false, nil},
		{"failure", false, errDown},
		{"failure after its caller was cancelled", true, context.Canceled},
		{"success after its caller was cancelled", true, nil},
	}
	// want[rule][outcome] is the waiter's result, then the later caller's.
	want := [][][2]string{
		{{"took 1", "ran 3"}, {"took down", "ran 3"}, {"ran 2", "ran 3"}, {"took 1", "ran 3"}},
		{{"ran 2", "ran 3"}, {"took down", "took down"}, {"ran 2", "ran 3"}, {"ran 2", "ran 3"}},
		{{"took 1", "took 1"}, {"ran 2", "took 2"}, {"ran 2", "took 2"}, {"took 1", "took 1"}},
	}
	for i, r := range rules {
		for j, o := range outcomes {
			t.Run(r.name+"/"+o.name, func(t *testing.T) {
				var tab Table[int]
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				started, release := make(chan struct{}), make(chan struct{})
				lead := make(chan string, 1)
				go func() {
					v, joined, err := tab.Do(ctx, "k", func() (int, error) {
						close(started)
						<-release
						if o.err != nil {
							return 0, o.err
						}
						return 1, nil
					}, r.rule)
					lead <- describe(v, joined, err)
				}()
				<-started
				waiter := make(chan string, 1)
				go func() {
					for !tab.waiting("k") {
						time.Sleep(time.Millisecond)
					}
					waiter <- "arrived"
				}()
				go func() {
					v, joined, err := tab.Do(context.Background(), "k", func() (int, error) { return 2, nil }, r.rule)
					waiter <- describe(v, joined, err)
				}()
				if got := <-waiter; got != "arrived" {
					t.Fatalf("the waiter did not wait: %s", got)
				}
				if o.cancel {
					cancel()
				}
				close(release)
				if got, wantLead := <-lead, describe(1, false, o.err); got != wantLead {
					t.Errorf("leader: %s, want %s", got, wantLead)
				}
				waited := <-waiter
				v, joined, err := tab.Do(context.Background(), "k", func() (int, error) { return 3, nil }, r.rule)
				got := [2]string{waited, describe(v, joined, err)}
				if got != want[i][j] {
					t.Errorf("waiter and later caller: %q, want %q", got, want[i][j])
				}
			})
		}
	}
}

// TestTableConcurrentCallersShareOneRun: eight concurrent callers of one key
// get one run's result. Run it under -race.
func TestTableConcurrentCallersShareOneRun(t *testing.T) {
	const n = 8
	var tab Table[*int]
	var runs atomic.Int64
	var start, done sync.WaitGroup
	start.Add(1)
	got := make([]*int, n)
	joined := make([]bool, n)
	for i := 0; i < n; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			got[i], joined[i], _ = tab.Do(context.Background(), "k", func() (*int, error) {
				runs.Add(1)
				time.Sleep(5 * time.Millisecond)
				return new(int), nil
			}, Successes[*int])
		}(i)
	}
	start.Done()
	done.Wait()
	ran := 0
	for i := range got {
		if got[i] != got[0] {
			t.Errorf("caller %d got %p, caller 0 %p", i, got[i], got[0])
		}
		if !joined[i] {
			ran++
		}
	}
	if runs.Load() != 1 || ran != 1 {
		t.Errorf("%d runs, %d callers ran; want 1 and 1", runs.Load(), ran)
	}
}

// TestTableWaitHonoursContext: a waiter whose context is cancelled returns
// its error at once, and the run goes on for the waiter that stayed.
func TestTableWaitHonoursContext(t *testing.T) {
	var tab Table[int]
	started, release := make(chan struct{}), make(chan struct{})
	go tab.Do(context.Background(), "k", func() (int, error) {
		close(started)
		<-release
		return 1, nil
	}, Successes[int])
	<-started
	stayed := make(chan string, 1)
	go func() {
		v, joined, err := tab.Do(context.Background(), "k", func() (int, error) { return 2, nil }, Successes[int])
		stayed <- describe(v, joined, err)
	}()
	ctx, cancel := context.WithCancel(context.Background())
	gaveUp := make(chan string, 1)
	go func() {
		v, joined, err := tab.Do(ctx, "k", func() (int, error) { return 3, nil }, Successes[int])
		gaveUp <- describe(v, joined, err)
	}()
	for !tab.waiting("k") {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case got := <-gaveUp:
		if got != "ran context canceled" {
			t.Fatalf("cancelled waiter: %s, want its context's error", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a cancelled waiter kept waiting")
	}
	close(release)
	if got := <-stayed; got != "took 1" {
		t.Errorf("the waiter that stayed: %s, want took 1", got)
	}
}

// TestTableZeroValue: a Table needs no constructor, and its keys are apart.
func TestTableZeroValue(t *testing.T) {
	var s struct{ tab Table[string] }
	for _, key := range []string{"a", "b", "a"} {
		v, _, err := s.tab.Do(context.Background(), key, func() (string, error) { return key, nil }, Successes[string])
		if v != key || err != nil {
			t.Errorf("Do(%q) = %q, %v", key, v, err)
		}
	}
}

// TestDoAllocs: an uncontended run that keeps nothing costs one allocation,
// the run (the wait channel is made only when a waiter arrives), and a kept
// result costs nothing to take.
func TestDoAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	ctx := context.Background()
	var tab Table[int]
	fn := func() (int, error) { return 1, nil }
	keepNothing := func(int, error) (bool, bool) { return true, false }
	if n := testing.AllocsPerRun(100, func() { tab.Do(ctx, "run", fn, keepNothing) }); n > 1 {
		t.Errorf("an uncontended run costs %.1f allocations, want at most 1", n)
	}
	tab.Do(ctx, "kept", fn, Successes[int])
	if n := testing.AllocsPerRun(100, func() { tab.Do(ctx, "kept", fn, Successes[int]) }); n != 0 {
		t.Errorf("taking a kept result costs %.1f allocations, want 0", n)
	}
}

// TestDoBytesAllocs: DoBytes reads its key's bytes in place, so a caller
// allocates the key only when it starts a run: an uncontended run costs
// the run and its key, and taking a kept result nothing.
func TestDoBytesAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	ctx := context.Background()
	var tab Table[int]
	fn := func() (int, error) { return 1, nil }
	keepNothing := func(int, error) (bool, bool) { return true, false }
	key := []byte("run")
	if n := testing.AllocsPerRun(100, func() { tab.DoBytes(ctx, key, fn, keepNothing) }); n > 2 {
		t.Errorf("an uncontended run costs %.1f allocations, want at most 2", n)
	}
	key = []byte("kept")
	if _, joined, _ := tab.DoBytes(ctx, key, fn, Successes[int]); joined {
		t.Fatal("the first caller of a key joined a run")
	}
	var joined bool
	if n := testing.AllocsPerRun(100, func() { _, joined, _ = tab.DoBytes(ctx, key, fn, Successes[int]) }); n != 0 || !joined {
		t.Errorf("taking a kept result costs %.1f allocations (joined: %v), want 0", n, joined)
	}
	if _, joined, _ := tab.Do(ctx, "kept", fn, Successes[int]); !joined {
		t.Error("Do of the same key as a string did not take DoBytes' kept result")
	}
}
