package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webbase/internal/sites"
	"webbase/internal/trace"
	"webbase/internal/ur"
	"webbase/internal/web"
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
// sheds immediately with ErrShedded and counts it.
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
	if _, err := a.acquire(context.Background(), ClassInteractive); !errors.Is(err, ErrShedded) {
		t.Fatalf("full gate returned %v, want ErrShedded", err)
	}
	if got := metrics.Snapshot().Counters["queries_shed_total"]; got != 1 {
		t.Fatalf("queries_shed_total = %d, want 1", got)
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
// queued batch waiter (who gets ErrShedded) and takes the queue slot. The
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
		if !errors.Is(err, ErrShedded) {
			t.Fatalf("evicted batch waiter got %v, want ErrShedded", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no batch waiter was evicted")
	}
	snap := metrics.Snapshot()
	if got := snap.Counters[`queries_shed_total{class="batch"}`]; got != 1 {
		t.Errorf(`queries_shed_total{class="batch"} = %d, want 1`, got)
	}
	if got := snap.Counters["queries_shed_total"]; got != 1 {
		t.Errorf("queries_shed_total = %d, want 1", got)
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
	if _, err := a.acquire(context.Background(), ClassBatch); !errors.Is(err, ErrShedded) {
		t.Fatalf("batch arrival got %v, want ErrShedded", err)
	}
	if _, err := a.acquire(context.Background(), ClassInteractive); !errors.Is(err, ErrShedded) {
		t.Fatalf("same-class arrival got %v, want ErrShedded (no equal-class eviction)", err)
	}
	snap := metrics.Snapshot()
	if got := snap.Counters[`queries_shed_total{class="batch"}`]; got != 1 {
		t.Errorf(`queries_shed_total{class="batch"} = %d, want 1`, got)
	}
	if got := snap.Counters[`queries_shed_total{class="interactive"}`]; got != 1 {
		t.Errorf(`queries_shed_total{class="interactive"} = %d, want 1`, got)
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

// TestQueryClassFromContext: WithQueryClass overrides the webbase default
// for one query; absent an override the configured default applies.
func TestQueryClassFromContext(t *testing.T) {
	if got := queryClassFrom(context.Background(), ClassBatch); got != ClassBatch {
		t.Errorf("default class = %v, want batch", got)
	}
	ctx := WithQueryClass(context.Background(), ClassInteractive)
	if got := queryClassFrom(ctx, ClassBatch); got != ClassInteractive {
		t.Errorf("override class = %v, want interactive", got)
	}
}

// gatedWorldFetcher forwards to the simulated world but blocks every
// fetch until the gate opens, so admitted queries stay executing for as
// long as the test wants.
type gatedWorldFetcher struct {
	inner web.Fetcher
	gate  chan struct{}
}

func (g *gatedWorldFetcher) Fetch(req *web.Request) (*web.Response, error) {
	select {
	case <-g.gate:
	case <-req.Context().Done():
		return nil, req.Context().Err()
	}
	return g.inner.Fetch(req)
}

// TestOverloadShedsFastAndExactly is the overload acceptance test: 64
// concurrent queries against max-inflight 8 + queue 8. Exactly 8 execute,
// 8 queue and 48 shed — each shed with ErrShedded while the fetch gate is
// still closed, so no shed waited for a slot to free — and once the load
// drains every admitted query completes with the same answer.
// queries_shed_total matches the shed count exactly, and the 8 queued
// queries (and only they) report a positive AdmissionWait that is excluded
// from Elapsed.
func TestOverloadShedsFastAndExactly(t *testing.T) {
	gate := make(chan struct{})
	wb, err := New(Config{
		Fetcher:     &gatedWorldFetcher{inner: sites.BuildWorld().Server, gate: gate},
		Workers:     4,
		MaxInFlight: 8,
		QueueDepth:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := ur.ParseQuery(wb.UR, wideCarQuery)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 64
	var (
		wg        sync.WaitGroup
		shedCount atomic.Int64
		mu        sync.Mutex
		answers   []string
		waited    []time.Duration
		elapsed   []time.Duration
		gateOpen  atomic.Bool
		lateShed  atomic.Int64 // sheds returned after the gate opened
	)
	start := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, qs, err := wb.QueryContext(context.Background(), q)
			if errors.Is(err, ErrShedded) {
				if gateOpen.Load() {
					lateShed.Add(1)
				}
				shedCount.Add(1)
				return
			}
			if err != nil {
				t.Errorf("admitted query failed: %v", err)
				return
			}
			mu.Lock()
			answers = append(answers, res.Relation.String())
			waited = append(waited, qs.AdmissionWait)
			elapsed = append(elapsed, qs.Elapsed)
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
		t.Fatalf("sheds = %d before opening the gate, want %d", got, clients-16)
	}
	gateOpen.Store(true)
	close(gate)
	wg.Wait()

	if late := lateShed.Load(); late != 0 {
		t.Errorf("%d sheds returned only after the gate opened", late)
	}
	if len(answers) != 16 {
		t.Fatalf("%d queries completed, want 16", len(answers))
	}
	for i, a := range answers {
		if a != answers[0] {
			t.Fatalf("answer %d differs from answer 0", i)
		}
	}
	if got := wb.Metrics().Snapshot().Counters["queries_shed_total"]; got != clients-16 {
		t.Errorf("queries_shed_total = %d, want %d", got, clients-16)
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
		t.Errorf("%d queries report AdmissionWait > 0, want exactly the 8 queued ones", queued)
	}
}
