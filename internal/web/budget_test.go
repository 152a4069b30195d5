package web

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is an advanceable clock safe for concurrent readers.
type fakeClock struct{ nanos atomic.Int64 }

func newFakeClock() *fakeClock {
	c := &fakeClock{}
	c.nanos.Store(time.Date(1998, 6, 1, 12, 0, 0, 0, time.UTC).UnixNano())
	return c
}

func (c *fakeClock) Now() time.Time          { return time.Unix(0, c.nanos.Load()) }
func (c *fakeClock) Advance(d time.Duration) { c.nanos.Add(int64(d)) }

func TestBudgetExhaustion(t *testing.T) {
	clock := newFakeClock()
	b := NewBudget(100*time.Millisecond, clock.Now)
	if b.Exhausted() {
		t.Fatal("fresh budget already exhausted")
	}
	clock.Advance(99 * time.Millisecond)
	if b.Exhausted() {
		t.Fatal("budget exhausted before its deadline")
	}
	clock.Advance(time.Millisecond)
	if !b.Exhausted() {
		t.Fatal("budget not exhausted at its deadline")
	}
}

func TestBudgetNilSafety(t *testing.T) {
	var b *Budget
	if b.Exhausted() {
		t.Fatal("nil budget reported exhausted")
	}
	if NewBudget(0, nil) != nil {
		t.Fatal("zero deadline should yield a nil (unlimited) budget")
	}
	if got := BudgetFrom(context.Background()); got != nil {
		t.Fatalf("empty context carries budget %v", got)
	}
	if ctx := ContextWithBudget(context.Background(), nil); BudgetFrom(ctx) != nil {
		t.Fatal("attaching a nil budget should be a no-op")
	}
}

func TestBudgetPolicyMints(t *testing.T) {
	clock := newFakeClock()
	ctx := WithQuery(context.Background(), &Query{Deadline: time.Second, Clock: clock.Now})
	b := QueryFrom(ctx).NewBudget()
	if b == nil {
		t.Fatal("policy with a deadline minted no budget")
	}
	clock.Advance(2 * time.Second)
	if !b.Exhausted() {
		t.Fatal("minted budget ignores the policy clock")
	}
	// No query → no policy → nil budget; likewise a query without a
	// Deadline.
	if QueryFrom(context.Background()).NewBudget() != nil {
		t.Fatal("missing policy should mint no budget")
	}
	if (&Query{}).NewBudget() != nil {
		t.Fatal("a query without a deadline should mint no budget")
	}
}

func TestDeadlineBudgetMiddleware(t *testing.T) {
	var calls atomic.Int64
	inner := FetcherFunc(func(req *Request) (*Response, error) {
		calls.Add(1)
		return HTML(req.URL, "<html></html>"), nil
	})
	stats := &Stats{}
	f := WithDeadlineBudget(inner, stats)

	// No budget on the context: passes through.
	if _, err := f.Fetch(NewGet("http://slow.example/p")); err != nil {
		t.Fatal(err)
	}
	// Healthy budget: passes through.
	clock := newFakeClock()
	b := NewBudget(100*time.Millisecond, clock.Now)
	ctx := ContextWithBudget(context.Background(), b)
	if _, err := f.Fetch(NewGet("http://slow.example/p").WithContext(ctx)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("inner fetched %d times, want 2", calls.Load())
	}
	// Exhausted budget: shed without touching inner.
	clock.Advance(time.Second)
	_, err := f.Fetch(NewGet("http://slow.example/p").WithContext(ctx))
	if err == nil {
		t.Fatal("exhausted budget did not shed the fetch")
	}
	if !IsBudgetExhausted(err) {
		t.Fatalf("shed error %v does not match ErrBudgetExhausted", err)
	}
	if !IsOutage(err) {
		t.Fatalf("shed error %v is not outage-classified (UR degradation depends on it)", err)
	}
	if host := FailingHost(err); host != "slow.example" {
		t.Fatalf("shed attributed to %q, want slow.example", host)
	}
	if calls.Load() != 2 {
		t.Fatalf("inner fetched %d times after the shed, want 2", calls.Load())
	}
	if stats.BudgetSheds() != 1 {
		t.Fatalf("budget sheds = %d, want 1", stats.BudgetSheds())
	}
}

// TestOutageMemoSkipsBudgetSheds pins that "out of time" is never
// memoized as a property of the site: an object with a healthy budget
// must not inherit a sibling's budget verdict.
func TestOutageMemoSkipsBudgetSheds(t *testing.T) {
	inner := FetcherFunc(func(req *Request) (*Response, error) {
		return nil, budgetErr(hostOf(req.URL))
	})
	q := &Query{}
	memo := &q.Memo
	ctx := WithQuery(context.Background(), q)
	f := WithOutageMemo(inner)
	if _, err := f.Fetch(NewGet("http://slow.example/p").WithContext(ctx)); !IsBudgetExhausted(err) {
		t.Fatalf("unexpected error %v", err)
	}
	if memo.Len() != 0 {
		t.Fatalf("memo recorded %d budget sheds, want 0", memo.Len())
	}
	// A genuine outage still memoizes.
	down := FetcherFunc(func(req *Request) (*Response, error) {
		return nil, MarkOutage(&HostError{Host: hostOf(req.URL), Err: errors.New("dead")})
	})
	f = WithOutageMemo(down)
	if _, err := f.Fetch(NewGet("http://down.example/p").WithContext(ctx)); !IsOutage(err) {
		t.Fatalf("unexpected error %v", err)
	}
	if memo.Len() != 1 {
		t.Fatalf("memo recorded %d outages, want 1", memo.Len())
	}
}
