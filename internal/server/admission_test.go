package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webbase/internal/core"
	"webbase/internal/sites"
	"webbase/internal/trace"
	"webbase/internal/web"
	"webbase/internal/wire"
)

// waitQueueLen polls the gate until its wait queue reaches n.
func waitQueueLen(t *testing.T, a *admission, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		a.mu.Lock()
		l := len(a.queue)
		a.mu.Unlock()
		if l == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("admission queue never reached length %d", n)
}

// TestAdmissionGateFIFO pins the queue's service order: queued queries
// are granted the slot strictly in arrival order.
func TestAdmissionGateFIFO(t *testing.T) {
	a := newAdmission(1, 3, trace.NewRegistry(), nil)
	if _, err := a.acquire(context.Background(), ClassInteractive); err != nil {
		t.Fatal(err)
	}
	order := make(chan int, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := a.acquire(context.Background(), ClassInteractive); err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			order <- i
			a.release()
		}(i)
		waitQueueLen(t, a, i+1) // enqueue deterministically, one at a time
	}
	a.release() // hand the slot down the chain
	wg.Wait()
	close(order)
	want := 0
	for got := range order {
		if got != want {
			t.Fatalf("service order broke FIFO: got waiter %d, want %d", got, want)
		}
		want++
	}
	if want != 3 {
		t.Fatalf("only %d waiters served", want)
	}
}

// TestAdmissionShedWhenFull: with the gate and queue both full, acquire
// sheds immediately with errShedded and counts it.
func TestAdmissionShedWhenFull(t *testing.T) {
	metrics := trace.NewRegistry()
	a := newAdmission(1, 1, metrics, nil)
	if _, err := a.acquire(context.Background(), ClassInteractive); err != nil {
		t.Fatal(err)
	}
	granted := make(chan struct{})
	go func() {
		if _, err := a.acquire(context.Background(), ClassInteractive); err == nil {
			close(granted)
		}
	}()
	waitQueueLen(t, a, 1)
	if _, err := a.acquire(context.Background(), ClassInteractive); !errors.Is(err, errShedded) {
		t.Fatalf("full gate returned %v, want errShedded", err)
	}
	if got := registryPage(t, metrics)["queries_shed_total"]; got != 1 {
		t.Fatalf("queries_shed_total = %v, want 1", got)
	}
	a.release()
	<-granted
	a.release()
	// Fully drained: the next acquire is immediate.
	if wait, err := a.acquire(context.Background(), ClassInteractive); err != nil || wait != 0 {
		t.Fatalf("drained gate: wait=%v err=%v", wait, err)
	}
}

// TestAdmissionCancelWhileQueued: a queued query whose context is
// cancelled unblocks with ctx.Err(), vacates its queue slot, and leaks
// no executing slot.
func TestAdmissionCancelWhileQueued(t *testing.T) {
	a := newAdmission(1, 2, trace.NewRegistry(), nil)
	if _, err := a.acquire(context.Background(), ClassInteractive); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() {
		_, err := a.acquire(ctx, ClassInteractive)
		res <- err
	}()
	waitQueueLen(t, a, 1)
	cancel()
	select {
	case err := <-res:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter never returned")
	}
	waitQueueLen(t, a, 0) // the abandoned waiter vacated its queue slot
	a.release()
	if wait, err := a.acquire(context.Background(), ClassInteractive); err != nil || wait != 0 {
		t.Fatalf("slot leaked past the cancelled waiter: wait=%v err=%v", wait, err)
	}
}

// TestAdmissionInteractiveEvictsQueuedBatch: with the gate and queue
// full, an arriving interactive query is not shed — it evicts the newest
// queued batch waiter (who gets errShedded) and takes the queue slot. The
// shed is attributed to the batch class.
func TestAdmissionInteractiveEvictsQueuedBatch(t *testing.T) {
	metrics := trace.NewRegistry()
	a := newAdmission(1, 2, metrics, nil)
	if _, err := a.acquire(context.Background(), ClassInteractive); err != nil {
		t.Fatal(err)
	}
	batchErr := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := a.acquire(context.Background(), ClassBatch)
			batchErr <- err
		}()
		waitQueueLen(t, a, i+1)
	}
	granted := make(chan struct{})
	go func() {
		if _, err := a.acquire(context.Background(), ClassInteractive); err != nil {
			t.Errorf("interactive query shed despite a batch victim: %v", err)
			return
		}
		close(granted)
	}()
	// The eviction is synchronous: the newest batch waiter is gone before
	// the interactive query even starts waiting.
	select {
	case err := <-batchErr:
		if !errors.Is(err, errShedded) {
			t.Fatalf("evicted batch waiter got %v, want errShedded", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no batch waiter was evicted")
	}
	snap := registryPage(t, metrics)
	if got := snap[`queries_shed_total{class="batch"}`]; got != 1 {
		t.Errorf(`queries_shed_total{class="batch"} = %v, want 1`, got)
	}
	if got := snap["queries_shed_total"]; got != 1 {
		t.Errorf("queries_shed_total = %v, want 1", got)
	}
	// Freed slot goes to the interactive waiter, not the older batch one.
	a.release()
	select {
	case <-granted:
	case <-time.After(2 * time.Second):
		t.Fatal("interactive waiter not granted the freed slot")
	}
	a.release() // interactive done; the surviving batch waiter runs
	select {
	case err := <-batchErr:
		if err != nil {
			t.Fatalf("surviving batch waiter: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("surviving batch waiter never granted")
	}
	a.release()
}

// TestAdmissionBatchNeverEvicts: a batch query arriving at a full queue
// sheds itself — even when every queued waiter is interactive — and the
// shed is attributed to the batch class. Same-class arrivals never evict
// either (no churn among equals).
func TestAdmissionBatchNeverEvicts(t *testing.T) {
	metrics := trace.NewRegistry()
	a := newAdmission(1, 1, metrics, nil)
	if _, err := a.acquire(context.Background(), ClassInteractive); err != nil {
		t.Fatal(err)
	}
	granted := make(chan struct{})
	go func() {
		if _, err := a.acquire(context.Background(), ClassInteractive); err == nil {
			close(granted)
		}
	}()
	waitQueueLen(t, a, 1)
	if _, err := a.acquire(context.Background(), ClassBatch); !errors.Is(err, errShedded) {
		t.Fatalf("batch arrival got %v, want errShedded", err)
	}
	if _, err := a.acquire(context.Background(), ClassInteractive); !errors.Is(err, errShedded) {
		t.Fatalf("same-class arrival got %v, want errShedded (no equal-class eviction)", err)
	}
	snap := registryPage(t, metrics)
	if got := snap[`queries_shed_total{class="batch"}`]; got != 1 {
		t.Errorf(`queries_shed_total{class="batch"} = %v, want 1`, got)
	}
	if got := snap[`queries_shed_total{class="interactive"}`]; got != 1 {
		t.Errorf(`queries_shed_total{class="interactive"} = %v, want 1`, got)
	}
	waitQueueLen(t, a, 1) // the interactive waiter still holds its place
	a.release()
	<-granted
	a.release()
}

// TestAdmissionReleaseGrantsInteractiveFirst: a freed slot goes to the
// highest class in the queue, FIFO within the class — queued batch work
// waits out every queued interactive query but is never starved of its
// arrival order among batch peers.
func TestAdmissionReleaseGrantsInteractiveFirst(t *testing.T) {
	a := newAdmission(1, 4, trace.NewRegistry(), nil)
	if _, err := a.acquire(context.Background(), ClassInteractive); err != nil {
		t.Fatal(err)
	}
	order := make(chan string, 4)
	var wg sync.WaitGroup
	enqueue := func(name string, class QueryClass) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := a.acquire(context.Background(), class); err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			order <- name
			a.release()
		}()
	}
	// Arrival order: batch-1, interactive-1, batch-2, interactive-2.
	for i, e := range []struct {
		name  string
		class QueryClass
	}{
		{"batch-1", ClassBatch},
		{"interactive-1", ClassInteractive},
		{"batch-2", ClassBatch},
		{"interactive-2", ClassInteractive},
	} {
		enqueue(e.name, e.class)
		waitQueueLen(t, a, i+1)
	}
	a.release() // hand the slot down the chain
	wg.Wait()
	close(order)
	want := []string{"interactive-1", "interactive-2", "batch-1", "batch-2"}
	i := 0
	for got := range order {
		if got != want[i] {
			t.Fatalf("service order[%d] = %s, want %s", i, got, want[i])
		}
		i++
	}
}

// TestOverloadShedsFastAndExactly is the overload acceptance test: 64
// simultaneous POSTs against max-inflight 8 + queue 8. Exactly 8 execute,
// 8 queue and 48 are answered 429 shedded — each while the fetch gate is
// still closed, so no shed waited for a slot to free — and once the load
// drains every admitted query streams the same answer.
// queries_shed_total matches the shed count exactly, and the trailers of
// the 8 queued queries (and only they) carry a positive AdmissionWait that
// is excluded from Elapsed.
func TestOverloadShedsFastAndExactly(t *testing.T) {
	gate := make(chan struct{})
	world := sites.BuildWorld()
	gated := web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		select {
		case <-gate:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
		return world.Server.Fetch(req)
	})
	ts, wb := newCarServer(t, core.Config{Fetcher: gated, Workers: 4}, Config{MaxInFlight: 8, QueueDepth: 8})

	const clients = 64
	var (
		wg        sync.WaitGroup
		shedCount atomic.Int64
		mu        sync.Mutex
		answers   []string
		waited    []time.Duration
		elapsed   []time.Duration
		gateOpen  atomic.Bool
		lateShed  atomic.Int64 // sheds answered after the gate opened
	)
	start := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(wideQuery))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				if gateOpen.Load() {
					lateShed.Add(1)
				}
				var env wire.Envelope
				if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Code != wire.CodeShedded {
					t.Errorf("429 body: %+v, %v; want code shedded", env.Error, err)
				}
				shedCount.Add(1)
				return
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("admitted query: status %d, %v", resp.StatusCode, err)
				return
			}
			lines := decodeLines(t, bytes.NewReader(body))
			stats, _ := lines[len(lines)-1]["stats"].(map[string]any)
			if lines[len(lines)-1]["event"] != wire.KindTrailer || stats == nil {
				t.Errorf("admitted query ended with %v, want a trailer", lines[len(lines)-1])
				return
			}
			tuples, err := json.Marshal(streamedTuples(lines))
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			answers = append(answers, string(tuples))
			waited = append(waited, time.Duration(stats["AdmissionWait"].(float64)))
			elapsed = append(elapsed, time.Duration(stats["Elapsed"].(float64)))
			mu.Unlock()
		}()
	}
	close(start)

	// No admitted query can finish while the fetch gate is closed, so the
	// gate+queue occupancy only grows: exactly 16 get in, 48 shed.
	deadline := time.Now().Add(10 * time.Second)
	for shedCount.Load() < clients-16 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := shedCount.Load(); got != clients-16 {
		close(gate)
		wg.Wait()
		t.Fatalf("sheds = %d before opening the gate, want %d", got, clients-16)
	}
	gateOpen.Store(true)
	close(gate)
	wg.Wait()

	if late := lateShed.Load(); late != 0 {
		t.Errorf("%d sheds answered only after the gate opened", late)
	}
	if len(answers) != 16 {
		t.Fatalf("%d queries completed, want 16", len(answers))
	}
	for i, a := range answers {
		if a != answers[0] {
			t.Fatalf("answer %d differs from answer 0", i)
		}
	}
	if got := registryPage(t, wb.Metrics())["queries_shed_total"]; got != clients-16 {
		t.Errorf("queries_shed_total = %v, want %v", got, clients-16)
	}
	// Exactly the 8 queued queries saw a positive admission wait, and
	// queue time is not folded into execution time: a queued query's
	// Elapsed covers only its run after the gate opened.
	queued := 0
	for i, w := range waited {
		if w > 0 {
			queued++
			if elapsed[i] <= 0 {
				t.Errorf("queued query %d: elapsed = %v", i, elapsed[i])
			}
		}
	}
	if queued != 8 {
		t.Errorf("%d trailers carry AdmissionWait > 0, want exactly the 8 queued ones", queued)
	}
}

// TestNewRefusesIgnoredAdmission: an admission setting the gate would
// silently ignore — a queue with no gate to stand behind, or a negative
// bound — is refused by New, naming the field.
func TestNewRefusesIgnoredAdmission(t *testing.T) {
	wb, err := core.New(core.Config{Fetcher: sites.BuildWorld().Server})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		maxInFlight, queueDepth int
		want                    string // "" = accepted
	}{
		{0, 0, ""},
		{8, 0, ""},
		{8, 8, ""},
		{0, 8, "Config.QueueDepth"},
		{-1, 0, "Config.MaxInFlight"},
		{8, -1, "Config.QueueDepth"},
	} {
		_, err := New(Config{System: wb, MaxInFlight: tc.maxInFlight, QueueDepth: tc.queueDepth})
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("MaxInFlight %d, QueueDepth %d: refused: %v", tc.maxInFlight, tc.queueDepth, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("MaxInFlight %d, QueueDepth %d: err = %v, want one naming %s", tc.maxInFlight, tc.queueDepth, err, tc.want)
		}
	}
}
