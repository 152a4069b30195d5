package trace

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock returns a deterministic, concurrency-safe clock advancing 1ms
// per call.
func fakeClock() func() time.Time {
	var n atomic.Int64
	base := time.Unix(0, 0)
	return func() time.Time {
		return base.Add(time.Duration(n.Add(1)) * time.Millisecond)
	}
}

func TestSpanTreeIDsArePlanOrdered(t *testing.T) {
	tr := New("q", fakeClock())
	a := tr.Root.Start(KindObject, "object A")
	b := tr.Root.Start(KindObject, "object B")
	a1 := a.Start(KindOp, "scan r")
	if tr.Root.ID() != "0" || a.ID() != "0.0" || b.ID() != "0.1" || a1.ID() != "0.0.0" {
		t.Fatalf("ids = %s %s %s %s", tr.Root.ID(), a.ID(), b.ID(), a1.ID())
	}
	kids := tr.Root.Children()
	if len(kids) != 2 || kids[0] != a || kids[1] != b {
		t.Fatal("children must come back in creation order")
	}
}

func TestNilSpanIsANoOp(t *testing.T) {
	var s *Span
	if c := s.Start(KindOp, "x"); c != nil {
		t.Fatal("nil.Start must return nil")
	}
	s.Set("tuples", 1)
	s.Add("tuples", 1)
	s.Label("outcome", "cache")
	s.End()
	s.EndErr(errors.New("boom"))
	if s.Counter("tuples") != 0 || s.LabelValue("outcome") != "" || s.Err() != "" || s.Duration() != 0 {
		t.Fatal("nil span must read as zero")
	}
	ctx := ContextWith(context.Background(), nil)
	if FromContext(ctx) != nil {
		t.Fatal("ContextWith(nil) must not attach a span")
	}
	if Start(ctx, KindOp, "x") != nil {
		t.Fatal("Start without a context span must return nil")
	}
}

func TestContextPlumbing(t *testing.T) {
	tr := New("q", fakeClock())
	ctx := ContextWith(context.Background(), tr.Root)
	child := Start(ctx, KindObject, "object A")
	if child == nil || child.ID() != "0.0" {
		t.Fatalf("child = %v", child)
	}
	if FromContext(ctx) != tr.Root {
		t.Fatal("FromContext must return the attached span")
	}
}

func TestRenderAggregatesSiblingsByKindAndName(t *testing.T) {
	tr := New("q", fakeClock())
	join := tr.Root.Start(KindOp, "⋈")
	for i := 0; i < 3; i++ {
		inv := join.Start(KindInvoke, "invoke {Make}")
		sc := inv.Start(KindOp, "bluebook")
		sc.Set("tuples", int64(i+1))
		sc.End()
		inv.End()
	}
	join.End()
	tr.Root.End()
	out := tr.Render(RenderOptions{})
	for _, want := range []string{
		"q invocations=1",
		"  ⋈ invocations=1",
		"    invoke {Make} invocations=3",
		"      bluebook invocations=3 tuples=6",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestRenderTimingsAndStrip(t *testing.T) {
	tr := New("q", fakeClock())
	tr.Root.End()
	with := tr.Render(RenderOptions{Timings: true})
	if !strings.Contains(with, " time=") {
		t.Fatalf("expected time= field:\n%s", with)
	}
	if stripped := StripTimings(with); strings.Contains(stripped, "time=") {
		t.Fatalf("StripTimings left timings:\n%s", stripped)
	} else if stripped != tr.Render(RenderOptions{}) {
		t.Fatalf("stripped rendering must equal the timing-free rendering:\n%q\n%q",
			stripped, tr.Render(RenderOptions{}))
	}
}

func TestStructureOmitsLabelsKeepsCountersAndErrors(t *testing.T) {
	tr := New("q", fakeClock())
	f := tr.Root.Start(KindFetch, "http://h/x")
	f.Set("bytes", 12)
	f.Label("outcome", "cache")
	f.EndErr(errors.New("boom"))
	tr.Root.End()
	s := tr.Structure()
	if !strings.Contains(s, "0.0 fetch http://h/x bytes=12 error=\"boom\"") {
		t.Fatalf("structure line wrong:\n%s", s)
	}
	if strings.Contains(s, "cache") {
		t.Fatalf("structure must omit schedule-dependent labels:\n%s", s)
	}
}

func TestJSONExport(t *testing.T) {
	tr := New("q", fakeClock())
	f := tr.Root.Start(KindFetch, "http://h/x")
	f.Set("bytes", 7)
	f.Label("outcome", "network")
	f.End()
	tr.Root.End()
	raw, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var root SpanJSON
	if err := json.Unmarshal(raw, &root); err != nil {
		t.Fatal(err)
	}
	if root.ID != "0" || root.Kind != "query" || len(root.Children) != 1 {
		t.Fatalf("root = %+v", root)
	}
	c := root.Children[0]
	if c.Labels["outcome"] != "network" || c.Counters["bytes"] != 7 {
		t.Fatalf("child = %+v", c)
	}
	if c.StartNS <= 0 || c.EndNS <= c.StartNS {
		t.Fatalf("offsets not monotone: %d %d", c.StartNS, c.EndNS)
	}
}

func TestWalkAndSpansFilter(t *testing.T) {
	tr := New("q", fakeClock())
	o := tr.Root.Start(KindObject, "o")
	o.Start(KindFetch, "f1")
	o.Start(KindFetch, "f2")
	if got := len(tr.Spans(KindFetch)); got != 2 {
		t.Fatalf("fetch spans = %d", got)
	}
	if got := len(tr.Spans()); got != 4 {
		t.Fatalf("all spans = %d", got)
	}
}

// TestConcurrentSpanUse exercises the tree under the race detector: the
// deterministic-ID discipline (pre-create in order, then dispatch) with
// concurrent counter/label writes and subtree growth.
func TestConcurrentSpanUse(t *testing.T) {
	tr := New("q", fakeClock())
	const n = 16
	branches := make([]*Span, n)
	for i := range branches {
		branches[i] = tr.Root.Start(KindObject, "object")
	}
	var wg sync.WaitGroup
	for i, b := range branches {
		wg.Add(1)
		go func(i int, b *Span) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				c := b.Start(KindFetch, "fetch")
				c.Add("bytes", 1)
				c.Label("outcome", "network")
				c.End()
			}
			b.Set("tuples", int64(i))
			b.End()
		}(i, b)
	}
	wg.Wait()
	tr.Root.End()
	if got := len(tr.Spans(KindFetch)); got != n*50 {
		t.Fatalf("fetch spans = %d, want %d", got, n*50)
	}
	for i, b := range tr.Root.Children() {
		if b != branches[i] {
			t.Fatal("pre-created branch order must be preserved")
		}
	}
}

// TestShareGivesTheEvaluationToTheFirstReader: an evaluation a later
// reader ran moves under the reader that comes first in plan order and is
// numbered where it lands, and the other reader is marked shared=1 with no
// children — the tree a sequential run, in which the first reader runs the
// evaluation itself, records.
func TestShareGivesTheEvaluationToTheFirstReader(t *testing.T) {
	build := func(evaluatorFirst bool) (*Trace, *Span) {
		tr := New("q", fakeClock())
		first := tr.Root.Start(KindObject, "object A").Start(KindOp, "book")
		second := tr.Root.Start(KindObject, "object B").Start(KindOp, "book")
		evaluator := second
		if evaluatorFirst {
			evaluator = first
		}
		h := evaluator.Start(KindHandle, "book via kellys")
		h.Start(KindFetch, "http://kellys.example/").Set("bytes", 10)
		Share(evaluator, []*Span{second, first})
		return tr, h
	}
	sequential, _ := build(true)
	parallel, h := build(false)
	if got, want := parallel.Structure(), sequential.Structure(); got != want {
		t.Errorf("structure depends on which reader ran the evaluation\n--- first ran it ---\n%s--- second ran it ---\n%s", want, got)
	}
	if h.ID() != "0.0.0.0" {
		t.Errorf("moved handle span has ID %s, want 0.0.0.0", h.ID())
	}
	if !strings.Contains(parallel.Structure(), "    0.1.0 op book shared=1\n") {
		t.Errorf("second reader not marked shared:\n%s", parallel.Structure())
	}
	if root := parallel.Export(); root.Children[0].Children[0].Children[0].ID != "0.0.0.0" {
		t.Errorf("exported IDs do not follow the move: %+v", root.Children[0].Children[0])
	}
}
