package ur

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"webbase/internal/algebra"
	"webbase/internal/relation"
	"webbase/internal/web"
)

// downCatalog fails Populate for the named relations with an
// Outage-classified, host-attributed error — a logical layer whose
// backing sites are dead.
type downCatalog struct {
	*algebra.MemCatalog
	down map[string]string // relation → dead host
}

func (c *downCatalog) Populate(ctx context.Context, name string, inputs map[string]relation.Value) (*relation.Relation, error) {
	if host, ok := c.down[name]; ok {
		return nil, web.MarkOutage(&web.HostError{Host: host,
			Err: fmt.Errorf("web: 3 attempts failed: connection refused")})
	}
	return c.MemCatalog.Populate(ctx, name, inputs)
}

// TestEvalDeadSiteInOnlyObject: when every plan object needs the dead
// site, the query fails — classified, not silently empty — and a dead
// site the plan never touches changes nothing.
func TestEvalDeadSiteInOnlyObject(t *testing.T) {
	s, mem := memLogical()
	// The mini schema has one maximal object {Ads, Book, Safety}; this
	// query's minimal cover is {Ads, Book}, so the dead book site kills
	// the only plan object.
	q := Query{
		Output: []string{"Make", "Price", "BBPrice"},
		Conditions: []algebra.Condition{
			{Attr: "Make", Op: algebra.EQ, Val: relation.String("jaguar")},
		},
	}
	healthy, err := s.Eval(context.Background(), q, mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	if healthy.Degradation != nil {
		t.Fatalf("healthy eval degraded: %+v", healthy.Degradation)
	}

	cat := &downCatalog{MemCatalog: mem, down: map[string]string{"book": "book.example"}}
	_, err = s.Eval(context.Background(), q, cat, nil)
	if err == nil {
		t.Fatal("query over a dead mandatory site succeeded")
	}
	if !web.IsOutage(err) {
		t.Fatalf("total failure lost its classification: %v", err)
	}

	// A cover that never touches book: the dead site is irrelevant.
	q2 := Query{
		Output: []string{"Make", "Safety"},
		Conditions: []algebra.Condition{
			{Attr: "Make", Op: algebra.EQ, Val: relation.String("jaguar")},
		},
	}
	res2, err := s.Eval(context.Background(), q2, cat, nil)
	if err != nil || res2.Degradation != nil {
		t.Fatalf("unrelated site affected the query: %v %+v", err, res2)
	}
}

// miniTwoObjectWorld builds a schema with two maximal objects that both
// cover the same query, so one can die and the other can answer.
func miniTwoObjectWorld() (*Schema, *algebra.MemCatalog) {
	h := &Hierarchy{Root: Cat("UR",
		Rel("A", Attr("K"), Attr("V")),
		Rel("B", Attr("K"), Attr("V")),
	)}
	// A ⊕ ∅ and B ⊕ ∅ but A ⊖ B: the set {A, B} is vetoed, leaving two
	// singleton maximal objects that both cover {K, V}.
	rules := []Rule{Plus("A"), Plus("B"), Minus("A", "B")}
	s, err := NewSchema("two", h, rules, map[string]string{"A": "a", "B": "b"})
	if err != nil {
		panic(err)
	}
	cat := algebra.NewMemCatalog()
	a := relation.New("a", relation.NewSchema("K", "V"))
	a.MustInsert(relation.String("k1"), relation.Int(1))
	a.MustInsert(relation.String("k2"), relation.Int(2))
	cat.Add(a, relation.NewAttrSet())
	b := relation.New("b", relation.NewSchema("K", "V"))
	b.MustInsert(relation.String("k3"), relation.Int(3))
	cat.Add(b, relation.NewAttrSet())
	return s, cat
}

// TestEvalPartialAnswerExactlySurvivors: the degraded answer must be
// exactly the surviving object's tuples, with the dead object reported.
func TestEvalPartialAnswerExactlySurvivors(t *testing.T) {
	s, mem := miniTwoObjectWorld()
	q := Query{Output: []string{"K", "V"}}

	healthy, err := s.Eval(context.Background(), q, mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	if healthy.Relation.Len() != 3 {
		t.Fatalf("healthy answer = %d tuples", healthy.Relation.Len())
	}

	cat := &downCatalog{MemCatalog: mem, down: map[string]string{"b": "b.example"}}
	res, err := s.Eval(context.Background(), q, cat, nil)
	if err != nil {
		t.Fatalf("degraded eval failed outright: %v", err)
	}
	if res.Relation.Len() != 2 {
		t.Fatalf("degraded answer = %d tuples, want exactly a's 2", res.Relation.Len())
	}
	if !res.Degradation.Degraded() || len(res.Degradation.Unavailable) != 1 {
		t.Fatalf("degradation report: %+v", res.Degradation)
	}
	f := res.Degradation.Unavailable[0]
	if f.Host != "b.example" {
		t.Errorf("failure host = %q", f.Host)
	}
	if strings.Join(f.Object, ",") != "B" {
		t.Errorf("failure object = %v", f.Object)
	}
	if !strings.Contains(f.Err, "connection refused") {
		t.Errorf("failure err = %q", f.Err)
	}
	rep := res.Degradation.String()
	if !strings.Contains(rep, "1 object(s) unavailable") || !strings.Contains(rep, "host=b.example") {
		t.Errorf("report rendering:\n%s", rep)
	}

	// Both objects down: the query fails, keeping classification and the
	// per-site detail in the message.
	all := &downCatalog{MemCatalog: mem,
		down: map[string]string{"a": "a.example", "b": "b.example"}}
	_, err = s.Eval(context.Background(), q, all, nil)
	if err == nil {
		t.Fatal("all-objects-down eval succeeded")
	}
	if !web.IsOutage(err) {
		t.Errorf("total outage not classified: %v", err)
	}
	if !strings.Contains(err.Error(), "a.example") && !strings.Contains(err.Error(), "b.example") {
		t.Errorf("total outage names no host: %v", err)
	}
}

// driftCatalog fails Populate for the named relations with a
// drift-classified error — sites that answer but no longer match their
// navigation maps.
type driftCatalog struct {
	*algebra.MemCatalog
	drifted map[string]string // relation → drifted host
}

func (c *driftCatalog) Populate(ctx context.Context, name string, inputs map[string]relation.Value) (*relation.Relation, error) {
	if host, ok := c.drifted[name]; ok {
		return nil, web.MarkDrift(&web.HostError{Host: host,
			Err: fmt.Errorf("navcalc: navigation failed: link \"Automobiles\" not found")})
	}
	return c.MemCatalog.Populate(ctx, name, inputs)
}

// TestEvalDriftDegradesWithKind: a drifted site degrades the answer like
// an outage does, but the report says so — Kind is "drift" and the
// rendered line carries the tag, so operators (and the health tracker)
// can tell a redesign from a dead host. Outage entries keep the
// historical untagged format byte for byte.
func TestEvalDriftDegradesWithKind(t *testing.T) {
	s, mem := miniTwoObjectWorld()
	q := Query{Output: []string{"K", "V"}}

	cat := &driftCatalog{MemCatalog: mem, drifted: map[string]string{"b": "b.example"}}
	res, err := s.Eval(context.Background(), q, cat, nil)
	if err != nil {
		t.Fatalf("degraded eval failed outright: %v", err)
	}
	if res.Relation.Len() != 2 {
		t.Fatalf("degraded answer = %d tuples, want the surviving object's 2", res.Relation.Len())
	}
	if len(res.Degradation.Unavailable) != 1 {
		t.Fatalf("degradation report: %+v", res.Degradation)
	}
	f := res.Degradation.Unavailable[0]
	if f.Kind != FailureDrift {
		t.Errorf("failure kind = %q, want %q", f.Kind, FailureDrift)
	}
	if f.Host != "b.example" {
		t.Errorf("failure host = %q", f.Host)
	}
	rep := res.Degradation.String()
	if !strings.Contains(rep, "host=b.example [drift]:") {
		t.Errorf("drift entry not tagged in report:\n%s", rep)
	}

	// An outage entry renders exactly as it always has — no tag.
	down := &downCatalog{MemCatalog: mem, down: map[string]string{"b": "b.example"}}
	res, err = s.Eval(context.Background(), q, down, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Degradation.Unavailable[0].Kind; got != FailureOutage {
		t.Errorf("outage kind = %q, want %q", got, FailureOutage)
	}
	rep = res.Degradation.String()
	if strings.Contains(rep, "[") {
		t.Errorf("outage entry grew a tag:\n%s", rep)
	}
	if !strings.Contains(rep, "host=b.example:") {
		t.Errorf("outage entry lost its historical format:\n%s", rep)
	}
}

// TestEvalCancellationIsNotDegradation: a canceled context aborts the
// query; it must never be recorded as a site failure.
func TestEvalCancellationIsNotDegradation(t *testing.T) {
	s, mem := miniTwoObjectWorld()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Eval(ctx, Query{Output: []string{"K", "V"}}, mem, nil)
	if err == nil {
		t.Skip("in-memory catalog answered before noticing cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if web.IsOutage(err) {
		t.Fatal("cancellation classified as outage")
	}
}
