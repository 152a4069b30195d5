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
	"strings"
)

// State is a database state. Clone must return a deep copy so that
// backtracking can discard the effects of a failed branch — this is how
// the interpreter provides the atomicity the paper notes transaction
// formulas share with database transactions.
type State interface {
	Clone() State
}

// Env is a set of logic-variable bindings threaded through an execution.
// Envs are treated as immutable: use With to extend.
type Env map[string]string

// With returns a copy of e with name bound to value.
func (e Env) With(name, value string) Env {
	out := make(Env, len(e)+1)
	for k, v := range e {
		out[k] = v
	}
	out[name] = value
	return out
}

// Lookup returns the binding of name.
func (e Env) Lookup(name string) (string, bool) {
	v, ok := e[name]
	return v, ok
}

// Outcome is one result of executing an action or formula: the state the
// execution path ends in and the (possibly extended) bindings.
type Outcome struct {
	State State
	Env   Env
}

// Action is a primitive transaction: a query (state-preserving) or an
// update (state-transforming). Run returns every outcome the action can
// produce from the given state — an empty slice is logical failure
// (backtrack), a non-nil error is a hard abort that cancels the whole
// execution.
type Action interface {
	Name() string
	Run(st State, env Env) ([]Outcome, error)
}

// Formula is a serial-Horn Transaction Logic formula.
type Formula interface {
	fmt.Stringer
	formula()
}

// Empty is the trivially true formula (the empty path); the ε used to
// terminate iteration.
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

// Not is negation as failure used as a guard: it succeeds, changing
// nothing, iff its body has no successful execution from the current
// state. The body runs hypothetically — its state changes are discarded.
type Not struct{ Body Formula }

func (Not) formula()         {}
func (n Not) String() string { return fmt.Sprintf("¬(%s)", n.Body) }

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

// String renders the program rule by rule, sorted for determinism.
func (p *Program) String() string {
	names := make([]string, 0, len(p.rules))
	for n := range p.rules {
		names = append(names, n)
	}
	sortStrings(names)
	var sb strings.Builder
	for _, n := range names {
		fmt.Fprintf(&sb, "%s ← %s\n", n, p.rules[n])
	}
	return sb.String()
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Reachable returns the names of the rules transitively callable from the
// goal formula — the navigation-expression analogue of dead-code
// elimination (the paper leaves expression optimization open; pruning
// unreachable rules is its cheapest instance, useful after map edits leave
// orphaned page rules behind).
func (p *Program) Reachable(goal Formula) map[string]bool {
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
		case Not:
			visit(f.Body)
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
// from goal.
func (p *Program) Prune(goal Formula) *Program {
	reachable := p.Reachable(goal)
	out := NewProgram()
	for name, body := range p.rules {
		if reachable[name] {
			out.rules[name] = body
		}
	}
	return out
}

// Len returns the number of rules.
func (p *Program) Len() int { return len(p.rules) }

// Interp executes formulas against states.
type Interp struct {
	Program *Program
	// MaxDepth bounds rule-call nesting, catching runaway recursion (a
	// navigation map with an unbounded loop). Zero means the default.
	MaxDepth int
}

const defaultMaxDepth = 100000

// Errors reported by the interpreter.
var (
	ErrDepthExceeded = errors.New("tlogic: recursion depth exceeded")
	ErrUnknownRule   = errors.New("tlogic: unknown rule")
)

// Run searches for the first successful execution of goal from st and
// returns its outcome together with the path of states the execution
// passed through (the initial state first). ok is false when the formula
// has no successful execution.
//
// The search keeps the path as one stack: each primitive step pushes its
// outcome's state, and backtracking pops it. The search is depth-first, so
// sibling branches never hold the path at once. The first success ends
// the search, so the stack is returned as it stands, without a copy.
func (in *Interp) Run(goal Formula, st State, env Env) (out Outcome, path []State, ok bool, err error) {
	if env == nil {
		env = Env{}
	}
	stop := func(o Outcome, p []State) (bool, error) {
		out, path, ok = o, p, true
		return true, nil
	}
	_, err = in.exec(goal, st, env, 0, newPath(st), stop)
	return out, path, ok, err
}

// RunAll collects up to max outcomes of goal (all of them when max <= 0).
func (in *Interp) RunAll(goal Formula, st State, env Env, max int) ([]Outcome, error) {
	if env == nil {
		env = Env{}
	}
	var outs []Outcome
	collect := func(o Outcome, _ []State) (bool, error) {
		outs = append(outs, o)
		return max > 0 && len(outs) >= max, nil
	}
	_, err := in.exec(goal, st, env, 0, newPath(st), collect)
	return outs, err
}

// cont receives each successful execution; returning true stops the
// search. The path is the search's stack: valid until cont returns.
type cont func(o Outcome, path []State) (bool, error)

// newPath is the stack of an execution starting from st, with room for a
// navigation's usual depth.
func newPath(st State) []State {
	return append(make([]State, 0, 16), st)
}

func (in *Interp) exec(f Formula, st State, env Env, depth int, path []State, k cont) (bool, error) {
	maxDepth := in.MaxDepth
	if maxDepth <= 0 {
		maxDepth = defaultMaxDepth
	}
	if depth > maxDepth {
		return false, ErrDepthExceeded
	}
	switch f := f.(type) {
	case Empty:
		return k(Outcome{State: st, Env: env}, path)
	case fail:
		return false, nil
	case Prim:
		outs, err := f.Action.Run(st, env)
		if err != nil {
			return false, fmt.Errorf("action %s: %w", f.Action.Name(), err)
		}
		// The push writes the slot past path, which only the search
		// below this step reads: each outcome reuses it in turn.
		for _, o := range outs {
			stop, err := k(o, append(path, o.State))
			if stop || err != nil {
				return stop, err
			}
		}
		return false, nil
	case Serial:
		return in.exec(f.Left, st, env, depth, path, func(o Outcome, p []State) (bool, error) {
			return in.exec(f.Right, o.State, o.Env, depth, p, k)
		})
	case Choice:
		stop, err := in.exec(f.Left, st, env, depth, path, k)
		if stop || err != nil {
			return stop, err
		}
		return in.exec(f.Right, st, env, depth, path, k)
	case Call:
		body, ok := in.Program.Rule(f.Rule)
		if !ok {
			return false, fmt.Errorf("%w: %s", ErrUnknownRule, f.Rule)
		}
		return in.exec(body, st, env, depth+1, path, k)
	case Not:
		found := false
		// Hypothetical execution over a cloned state: effects discarded.
		// Its steps push above path and are popped before k runs.
		_, err := in.exec(f.Body, st.Clone(), env, depth, path, func(Outcome, []State) (bool, error) {
			found = true
			return true, nil
		})
		if err != nil {
			return false, err
		}
		if found {
			return false, nil
		}
		return k(Outcome{State: st, Env: env}, path)
	default:
		return false, fmt.Errorf("tlogic: unknown formula type %T", f)
	}
}
