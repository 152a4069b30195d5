package tlogic

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"webbase/internal/race"
)

// counter is a toy state: a number plus a log of applied operations.
type counter struct {
	n   int
	log []string
}

func (c *counter) clone() *counter {
	return &counter{n: c.n, log: append([]string(nil), c.log...)}
}

// op is a primitive that transforms the counter, optionally failing.
type op struct {
	name string
	fn   func(c *counter) ([]State, error)
}

func (o op) Name() string { return o.name }
func (o op) Run(st State, _ Env, out []State) ([]State, error) {
	next, err := o.fn(st.(*counter))
	return append(out, next...), err
}

func inc(by int) Formula {
	return Prim{op{name: "inc", fn: func(c *counter) ([]State, error) {
		nc := c.clone()
		nc.n += by
		nc.log = append(nc.log, "inc")
		return []State{nc}, nil
	}}}
}

// guardLess succeeds (state unchanged) iff n < limit.
func guardLess(limit int) Formula {
	return Prim{op{name: "less", fn: func(c *counter) ([]State, error) {
		if c.n < limit {
			return []State{c}, nil
		}
		return nil, nil
	}}}
}

func failing() Formula {
	return Prim{op{name: "boom", fn: func(c *counter) ([]State, error) {
		return nil, errors.New("hardware on fire")
	}}}
}

func run(t *testing.T, in *Interp, goal Formula, start int) (State, []State, bool) {
	t.Helper()
	end, path, ok, err := in.Run(goal, &counter{n: start}, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return end, path, ok
}

func TestSerialExecutesInOrder(t *testing.T) {
	in := &Interp{Program: NewProgram()}
	out, path, ok := run(t, in, Seq(inc(1), inc(10), inc(100)), 0)
	if !ok {
		t.Fatal("serial failed")
	}
	if got := out.(*counter).n; got != 111 {
		t.Errorf("n = %d, want 111", got)
	}
	// Path: initial + one state per action.
	if len(path) != 4 {
		t.Errorf("path length = %d, want 4", len(path))
	}
	ns := make([]int, len(path))
	for i, s := range path {
		ns[i] = s.(*counter).n
	}
	want := []int{0, 1, 11, 111}
	for i := range want {
		if ns[i] != want[i] {
			t.Errorf("path[%d] = %d, want %d", i, ns[i], want[i])
		}
	}
}

func TestChoicePrefersLeftAndBacktracks(t *testing.T) {
	in := &Interp{Program: NewProgram()}
	// Left branch fails its guard after mutating: effects must not leak
	// into the right branch.
	left := Seq(inc(5), guardLess(0)) // always fails after the inc
	right := inc(1)
	out, _, ok := run(t, in, Choice{Left: left, Right: right}, 0)
	if !ok {
		t.Fatal("choice failed")
	}
	c := out.(*counter)
	if c.n != 1 {
		t.Errorf("n = %d, want 1 (left branch effects must be discarded)", c.n)
	}
	if len(c.log) != 1 {
		t.Errorf("log = %v, want one entry", c.log)
	}
}

func TestChoicePrefersLeftWhenBothSucceed(t *testing.T) {
	in := &Interp{Program: NewProgram()}
	out, _, ok := run(t, in, Choice{Left: inc(1), Right: inc(2)}, 0)
	if !ok || out.(*counter).n != 1 {
		t.Error("ordered choice should take the left branch first")
	}
}

func TestRecursionCountsToLimit(t *testing.T) {
	// count ← (n < 7) ⊗ inc(1) ⊗ count  ∨  ε
	p := NewProgram()
	p.Define("count", Choice{
		Left:  Seq(guardLess(7), inc(1), Call{Rule: "count"}),
		Right: Empty{},
	})
	in := &Interp{Program: p}
	out, path, ok := run(t, in, Call{Rule: "count"}, 0)
	if !ok {
		t.Fatal("recursion failed")
	}
	if got := out.(*counter).n; got != 7 {
		t.Errorf("n = %d, want 7", got)
	}
	if len(path) < 8 {
		t.Errorf("path too short: %d", len(path))
	}
}

func TestHardErrorAborts(t *testing.T) {
	in := &Interp{Program: NewProgram()}
	_, _, _, err := in.Run(Choice{Left: failing(), Right: inc(1)}, &counter{}, nil)
	if err == nil || !strings.Contains(err.Error(), "hardware on fire") {
		t.Errorf("hard error should abort, got %v", err)
	}
}

func TestUnknownRule(t *testing.T) {
	in := &Interp{Program: NewProgram()}
	_, _, _, err := in.Run(Call{Rule: "ghost"}, &counter{}, nil)
	if !errors.Is(err, ErrUnknownRule) {
		t.Errorf("err = %v", err)
	}
}

func TestDepthLimit(t *testing.T) {
	p := NewProgram()
	p.Define("loop", Call{Rule: "loop"}) // infinite recursion
	in := &Interp{Program: p}
	_, _, _, err := in.Run(Call{Rule: "loop"}, &counter{}, nil)
	if !errors.Is(err, ErrDepthExceeded) {
		t.Errorf("err = %v", err)
	}
}

func TestEmptyAndFailFormulas(t *testing.T) {
	in := &Interp{Program: NewProgram()}
	if _, _, ok := run(t, in, Empty{}, 0); !ok {
		t.Error("ε must succeed")
	}
	if _, _, ok := run(t, in, Alt(), 0); ok {
		t.Error("Alt() must fail")
	}
	if _, _, ok := run(t, in, Seq(), 0); !ok {
		t.Error("Seq() must succeed")
	}
}

func TestFormulaStrings(t *testing.T) {
	f := Seq(inc(1), Choice{Left: Empty{}, Right: Call{Rule: "r"}})
	s := f.String()
	for _, want := range []string{"⊗", "∨", "ε", "r", "inc"} {
		if !strings.Contains(s, want) {
			t.Errorf("formula rendering %q missing %q", s, want)
		}
	}
	if Alt().String() != "⊥" {
		t.Error("fail rendering")
	}
}

func TestProgramString(t *testing.T) {
	p := NewProgram()
	p.Define("b", Empty{})
	p.Define("a", Call{Rule: "b"})
	s := p.String()
	if !strings.Contains(s, "a ← b") || !strings.Contains(s, "b ← ε") {
		t.Errorf("program rendering:\n%s", s)
	}
	if strings.Index(s, "a ←") > strings.Index(s, "b ←") {
		t.Error("rules should render sorted")
	}
	if _, ok := p.Rule("a"); !ok {
		t.Error("Rule lookup failed")
	}
}

// outcomesOf returns the final counter value of every execution of f, in
// the order the search finds them: f is followed by a step that records
// its state and fails, so the search backtracks through all of them.
func outcomesOf(t *testing.T, f Formula, start int) []int {
	t.Helper()
	var ns []int
	record := Prim{op{name: "record", fn: func(c *counter) ([]State, error) {
		ns = append(ns, c.n)
		return nil, nil
	}}}
	in := &Interp{Program: NewProgram()}
	if _, _, ok, err := in.Run(Seq(f, record), &counter{n: start}, nil); ok || err != nil {
		t.Fatalf("recording run: ok=%v err=%v", ok, err)
	}
	return ns
}

// randomFormula builds a small random ⊗/∨ formula over inc/guard
// primitives.
func randomFormula(r *rand.Rand, depth int) Formula {
	if depth <= 0 {
		switch r.Intn(3) {
		case 0:
			return inc(1 + r.Intn(5))
		case 1:
			return guardLess(5 + r.Intn(20))
		default:
			return Empty{}
		}
	}
	a, b := randomFormula(r, depth-1), randomFormula(r, depth-1)
	if r.Intn(2) == 0 {
		return Serial{Left: a, Right: b}
	}
	return Choice{Left: a, Right: b}
}

// TestSerialAssociativityProperty: (a ⊗ b) ⊗ c and a ⊗ (b ⊗ c) produce the
// same outcome sequences — Transaction Logic's ⊗ is associative.
func TestSerialAssociativityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		a, b, c := randomFormula(r, 2), randomFormula(r, 2), randomFormula(r, 2)
		left := Serial{Left: Serial{Left: a, Right: b}, Right: c}
		right := Serial{Left: a, Right: Serial{Left: b, Right: c}}
		lo, ro := outcomesOf(t, left, 0), outcomesOf(t, right, 0)
		if !reflect.DeepEqual(lo, ro) {
			t.Fatalf("trial %d: %v vs %v\n%s\n%s", trial, lo, ro, left, right)
		}
	}
}

// TestSerialDistributesOverChoice: a ⊗ (b ∨ c) ≡ (a ⊗ b) ∨ (a ⊗ c) as an
// outcome multiset (when a is nondeterministic the two sides enumerate in
// different orders) — the left-distributivity that justifies the navmap
// translation grouping parallel edges under one action.
func TestSerialDistributesOverChoice(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		a, b, c := randomFormula(r, 2), randomFormula(r, 2), randomFormula(r, 2)
		fused := Serial{Left: a, Right: Choice{Left: b, Right: c}}
		split := Choice{Left: Serial{Left: a, Right: b}, Right: Serial{Left: a, Right: c}}
		fo, so := outcomesOf(t, fused, 0), outcomesOf(t, split, 0)
		sort.Ints(fo)
		sort.Ints(so)
		if !reflect.DeepEqual(fo, so) {
			t.Fatalf("trial %d: %v vs %v", trial, fo, so)
		}
	}
}

// TestEpsilonIsSerialIdentity: ε ⊗ a ≡ a ≡ a ⊗ ε.
func TestEpsilonIsSerialIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	for trial := 0; trial < 100; trial++ {
		a := randomFormula(r, 3)
		base := outcomesOf(t, a, 1)
		if !reflect.DeepEqual(outcomesOf(t, Serial{Left: Empty{}, Right: a}, 1), base) {
			t.Fatalf("ε ⊗ a ≠ a for %s", a)
		}
		if !reflect.DeepEqual(outcomesOf(t, Serial{Left: a, Right: Empty{}}, 1), base) {
			t.Fatalf("a ⊗ ε ≠ a for %s", a)
		}
	}
}

func TestPruneRemovesUnreachableRules(t *testing.T) {
	p := NewProgram()
	p.Define("a", Serial{Left: Call{Rule: "b"}, Right: Empty{}})
	p.Define("b", Choice{Left: Empty{}, Right: Call{Rule: "c"}})
	p.Define("c", Call{Rule: "c"}) // self-recursive, reachable through ∨
	p.Define("orphan", Empty{})
	p.Define("orphan2", Call{Rule: "orphan"}) // only reachable from orphans

	goal := Call{Rule: "a"}
	reach := p.reachable(goal)
	for _, want := range []string{"a", "b", "c"} {
		if !reach[want] {
			t.Errorf("rule %s should be reachable", want)
		}
	}
	if reach["orphan"] || reach["orphan2"] {
		t.Error("orphans reported reachable")
	}
	pruned := p.Prune(goal)
	if got := pruned.Names(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("pruned to %v, want [a b c]", got)
	}
	// Pruned program still executes the goal identically.
	in := &Interp{Program: pruned}
	if _, _, ok, err := in.Run(goal, &counter{}, nil); err != nil || !ok {
		t.Errorf("pruned program broken: %v %v", ok, err)
	}
}

func TestPathIsolationAcrossBranches(t *testing.T) {
	// Both branches of a choice extend the same prefix; each must see its
	// own outcome (no shared-slice corruption).
	if got := outcomesOf(t, Seq(inc(1), Alt(inc(10), inc(20))), 0); !reflect.DeepEqual(got, []int{11, 21}) {
		t.Errorf("branch outcomes: %v, want [11 21]", got)
	}
}

// TestPathThroughBacktracking: the search keeps the path as one stack, so
// a branch that fails must leave nothing of its own on the path the
// successful execution returns, however far it got first.
func TestPathThroughBacktracking(t *testing.T) {
	incs := func(k, by int) Formula {
		fs := make([]Formula, k)
		for i := range fs {
			fs[i] = inc(by)
		}
		return Seq(fs...)
	}
	// fork moves to n+10 or n+20, in that order.
	fork := Prim{op{name: "fork", fn: func(c *counter) ([]State, error) {
		return []State{&counter{n: c.n + 10}, &counter{n: c.n + 20}}, nil
	}}}
	atLeast := func(limit int) Formula {
		return Prim{op{name: "atleast", fn: func(c *counter) ([]State, error) {
			if c.n >= limit {
				return []State{c}, nil
			}
			return nil, nil
		}}}
	}
	cases := []struct {
		name string
		goal Formula
		want []int
	}{
		{"choice whose left branch dies 20 steps in", // past the stack's initial room
			Seq(inc(1), Choice{Left: Seq(incs(20, 100), guardLess(0)), Right: inc(2)}, inc(3)),
			[]int{0, 1, 3, 6}},
		{"nondeterministic step whose first outcome dies deeper in",
			Seq(inc(1), fork, inc(1), inc(1), atLeast(23)),
			[]int{0, 1, 21, 22, 23, 23}},
		{"nested nondeterministic steps holding more alternatives than the outcome stack's room",
			Seq(fork, fork, fork, atLeast(60)),
			[]int{0, 20, 40, 60, 60}},
		{"failed branches inside a serial",
			Seq(inc(1), Alt(Seq(incs(3, 5), guardLess(0)), Empty{}), inc(2), Alt(Seq(incs(2, 7), atLeast(100)), Empty{})),
			[]int{0, 1, 3}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := &Interp{Program: NewProgram()}
			_, path, ok := run(t, in, c.goal, 0)
			if !ok {
				t.Fatal("no successful execution")
			}
			got := make([]int, len(path))
			for i, s := range path {
				got[i] = s.(*counter).n
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("path = %v, want %v", got, c.want)
			}
		})
	}
}

// hold is a step that moves to the states it holds, in order.
type hold []State

func (hold) Name() string { return "hold" }
func (h hold) Run(_ State, _ Env, out []State) ([]State, error) {
	return append(out, h...), nil
}

// TestStepAllocs: a step whose action moves to states it already holds
// allocates nothing in the interpreter. An execution pays for its stacks
// once, as the empty formula does, whatever it backtracks over, while its
// path stays within 16 states and it holds no more than two outcomes at
// once.
func TestStepAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	one, two := Prim{hold{&counter{}}}, Prim{hold{&counter{n: 1}, &counter{n: 2}}}
	none := Prim{hold(nil)}
	long := make([]Formula, 15)
	for i := range long {
		long[i] = one
	}
	in := &Interp{Program: NewProgram()}
	allocs := func(goal Formula) float64 {
		return testing.AllocsPerRun(100, func() {
			if _, _, ok, err := in.Run(goal, &counter{}, nil); !ok || err != nil {
				t.Fatalf("%v: ok=%v err=%v", goal, ok, err)
			}
		})
	}
	base := allocs(Empty{})
	for _, goal := range []Formula{
		one,
		Seq(one, two, one),
		Seq(one, Choice{Left: Seq(one, two, none), Right: two}, one),
		Seq(long...),
	} {
		if got := allocs(goal); got != base {
			t.Errorf("%v allocates %.0f times, the empty formula %.0f", goal, got, base)
		}
	}
}
