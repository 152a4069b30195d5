// Package tlogic implements the Transaction Logic half of the navigation
// calculus: the serial-Horn subset the paper uses (Section 4).
//
// Transaction Logic formulas are true over *paths* — finite sequences of
// database states — rather than at single states. Procedurally, a ⊗ b
// means "execute a, then execute b"; a ∨ b means "execute a or execute b,
// non-deterministically"; named rules give recursion. Executing a formula
// against an initial state searches for a path that makes it true; this
// interpreter performs that search by depth-first backtracking, exactly
// the executional entailment of Bonner & Kifer's proof theory restricted
// to the serial-Horn fragment.
package tlogic

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// State is a database state.
type State any

// Env is the input bindings of an execution: variable name → value. No
// action binds a variable, so an execution reads its Env and never
// changes it.
type Env map[string]string

// Action is a primitive transaction: a query (state-preserving) or an
// update (state-transforming). Run appends every state the action can
// move to from st onto out and returns the extended slice — appending
// none is logical failure (backtrack), a non-nil error is a hard abort
// that cancels the whole execution. Run changes no element of out and
// keeps no slice of it: the interpreter reuses it. Run never changes st,
// so backtracking discards a failed branch's effects by dropping its
// states — the atomicity the paper notes transaction formulas share with
// database transactions.
type Action interface {
	Name() string
	Run(st State, env Env, out []State) ([]State, error)
}

// Formula is a serial-Horn Transaction Logic formula.
type Formula interface {
	fmt.Stringer
	formula()
}

// Empty is the trivially true formula (the empty path); the ε that ends
// a recursive rule.
type Empty struct{}

func (Empty) formula()       {}
func (Empty) String() string { return "ε" }

// Prim lifts a primitive action into a formula.
type Prim struct{ Action Action }

func (Prim) formula()         {}
func (p Prim) String() string { return p.Action.Name() }

// Serial is the serial conjunction a ⊗ b: execute a, then b.
type Serial struct{ Left, Right Formula }

func (Serial) formula() {}
func (s Serial) String() string {
	return fmt.Sprintf("%s ⊗ %s", s.Left, s.Right)
}

// Choice is the disjunction a ∨ b: execute a or b. The interpreter tries
// Left first, so Choice doubles as the ordered if-then-else of the
// navigation expressions ("either extract data, or fill form f2").
type Choice struct{ Left, Right Formula }

func (Choice) formula() {}
func (c Choice) String() string {
	return fmt.Sprintf("(%s ∨ %s)", c.Left, c.Right)
}

// Call invokes a named rule of the program, providing recursion (the
// unbounded "More"-button iteration of Figure 2 is a recursive rule).
type Call struct{ Rule string }

func (Call) formula()         {}
func (c Call) String() string { return c.Rule }

// Seq folds formulas into a right-nested serial conjunction. Seq() is ε.
func Seq(fs ...Formula) Formula {
	if len(fs) == 0 {
		return Empty{}
	}
	out := fs[len(fs)-1]
	for i := len(fs) - 2; i >= 0; i-- {
		out = Serial{Left: fs[i], Right: out}
	}
	return out
}

// Alt folds formulas into a left-preferring choice. Alt() always fails.
func Alt(fs ...Formula) Formula {
	if len(fs) == 0 {
		return fail{}
	}
	out := fs[len(fs)-1]
	for i := len(fs) - 2; i >= 0; i-- {
		out = Choice{Left: fs[i], Right: out}
	}
	return out
}

// fail is the always-false formula produced by Alt().
type fail struct{}

func (fail) formula()       {}
func (fail) String() string { return "⊥" }

// Program is a set of named rules (the serial-Horn clauses).
type Program struct {
	rules map[string]Formula
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{rules: make(map[string]Formula)}
}

// Define adds (or replaces) the rule name ← body.
func (p *Program) Define(name string, body Formula) { p.rules[name] = body }

// Rule returns the body of the named rule.
func (p *Program) Rule(name string) (Formula, bool) {
	f, ok := p.rules[name]
	return f, ok
}

// Names returns the names of the program's rules, sorted.
func (p *Program) Names() []string {
	names := make([]string, 0, len(p.rules))
	for n := range p.rules {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// String renders the program rule by rule, in name order.
func (p *Program) String() string {
	var sb strings.Builder
	for _, n := range p.Names() {
		fmt.Fprintf(&sb, "%s ← %s\n", n, p.rules[n])
	}
	return sb.String()
}

// reachable returns the names of the rules transitively callable from the
// goal formula.
func (p *Program) reachable(goal Formula) map[string]bool {
	seen := make(map[string]bool)
	var visit func(f Formula)
	visit = func(f Formula) {
		switch f := f.(type) {
		case Serial:
			visit(f.Left)
			visit(f.Right)
		case Choice:
			visit(f.Left)
			visit(f.Right)
		case Call:
			if seen[f.Rule] {
				return
			}
			seen[f.Rule] = true
			if body, ok := p.rules[f.Rule]; ok {
				visit(body)
			}
		}
	}
	visit(goal)
	return seen
}

// Prune returns a copy of the program containing only the rules reachable
// from goal — the navigation-expression analogue of dead-code elimination
// (the paper leaves expression optimization open; pruning unreachable
// rules is its cheapest instance, useful after map edits leave orphaned
// page rules behind).
func (p *Program) Prune(goal Formula) *Program {
	reachable := p.reachable(goal)
	out := NewProgram()
	for name, body := range p.rules {
		if reachable[name] {
			out.rules[name] = body
		}
	}
	return out
}

// Interp executes formulas against states.
type Interp struct {
	Program *Program
	// Stacks is the room Run's stacks start in, which a caller that runs
	// many searches may lend; nil gives each Run its own.
	Stacks *Stacks
}

// Stacks is the room a search's two stacks start in: a path of 16 states
// and two alternatives (DESIGN.md §18). Either grows on its own past that.
// Run leaves states in it; its lender clears it before lending it again.
type Stacks [pathRoom + 2]State

// pathRoom is how many states a path holds before it grows.
const pathRoom = 16

// maxDepth bounds rule-call nesting, catching runaway recursion (a
// navigation map with an unbounded loop).
const maxDepth = 100000

// Errors reported by the interpreter.
var (
	ErrDepthExceeded = errors.New("tlogic: recursion depth exceeded")
	ErrUnknownRule   = errors.New("tlogic: unknown rule")
)

// Run searches for the first successful execution of goal from st with
// the input bindings env, and returns the state it ends in together with
// the path of states it passed through (st first, the end state last). ok
// is false when the formula has no successful execution.
//
// The search keeps the path as one stack: each primitive step pushes the
// state it moves to, and backtracking pops it. Beside it is the outcome
// stack: each step pushes the states it can move to, and pops each as the
// search moves to it, so the stack holds only the alternatives left to
// try. The search is depth-first, so sibling branches never hold either
// stack at once. The first success ends the search, so the path is
// returned as it stands, without a copy: in the Interp's Stacks when it
// fit there, valid until they are lent again.
func (in *Interp) Run(goal Formula, st State, env Env) (end State, path []State, ok bool, err error) {
	stop := func(p, _ []State) (bool, error) {
		path, ok = p, true
		return true, nil
	}
	room := in.Stacks
	if room == nil {
		room = new(Stacks)
	}
	if _, err = in.exec(goal, env, 0, append(room[:0:pathRoom], st), room[pathRoom:pathRoom], stop); err != nil || !ok {
		return nil, nil, false, err
	}
	return path[len(path)-1], path, true, nil
}

// cont receives each successful execution as its path, whose last state is
// where it ends, and the outcome stack the search continues on; returning
// true stops the search. Both are the search's stacks: valid until cont
// returns.
type cont func(path, outs []State) (bool, error)

// exec runs f from the last state of path. outs is the outcome stack: the
// states the steps before f still have to try. f appends only past them.
func (in *Interp) exec(f Formula, env Env, depth int, path, outs []State, k cont) (bool, error) {
	if depth > maxDepth {
		return false, ErrDepthExceeded
	}
	switch f := f.(type) {
	case Empty:
		return k(path, outs)
	case fail:
		return false, nil
	case Prim:
		next, err := f.Action.Run(path[len(path)-1], env, outs)
		if err != nil {
			return false, fmt.Errorf("action %s: %w", f.Action.Name(), err)
		}
		// The step's outcomes are next[len(outs):]. Reversed, they are
		// tried in order by popping them, so the search below an outcome
		// appends past only the outcomes still to try: a step with one
		// outcome leaves the stack as it found it. The push writes the
		// slot past path, which only the search below this step reads:
		// each outcome reuses it in turn.
		slices.Reverse(next[len(outs):])
		for len(next) > len(outs) {
			st := next[len(next)-1]
			next = next[:len(next)-1]
			stop, err := k(append(path, st), next)
			if stop || err != nil {
				return stop, err
			}
		}
		return false, nil
	case Serial:
		return in.exec(f.Left, env, depth, path, outs, func(p, o []State) (bool, error) {
			return in.exec(f.Right, env, depth, p, o, k)
		})
	case Choice:
		stop, err := in.exec(f.Left, env, depth, path, outs, k)
		if stop || err != nil {
			return stop, err
		}
		return in.exec(f.Right, env, depth, path, outs, k)
	case Call:
		body, ok := in.Program.Rule(f.Rule)
		if !ok {
			return false, fmt.Errorf("%w: %s", ErrUnknownRule, f.Rule)
		}
		return in.exec(body, env, depth+1, path, outs, k)
	default:
		return false, fmt.Errorf("tlogic: unknown formula type %T", f)
	}
}
