// Package prune implements runtime access-relevance pruning in the sense
// of Benedikt, Gottlob & Senellart, "Determining Relevance of Accesses at
// Runtime" (PAPERS.md): given the values already bound by the evaluator
// and the query's conjunctive WHERE clause, a pending access (handle
// invocation, dependent-join feed, or whole maximal object) is relevant
// only if it can still contribute answer tuples. Irrelevant accesses are
// skipped before any page is fetched.
//
// The package sits below every evaluation layer — ur threads a State
// through the context, algebra consults it before dependent-join
// invocations, vps consults it before executing a handle — so it must not
// import any of them; it speaks only relation values. Three rules are
// supported:
//
//  1. unsat-where: the inputs an invocation would be made with already
//     violate some conjunct (or the conjunction is statically
//     unsatisfiable), so every tuple the site could return dies in a σ
//     above. The invocation is skipped and replaced by ∅.
//  2. the same check applied to whole dependent-join feed tuples, which
//     short-circuits chains whose upstream bindings are already doomed.
//  3. limit: with LIMIT n and no effective ORDER BY, once the completed
//     plan-order prefix of maximal objects holds ≥ n distinct tuples, no
//     later object can change the answer and is skipped outright. The
//     State only carries n (Limit) and counts the skips; the prefix is the
//     answer so far, which package ur's plan-order gate already holds, so
//     the decision is made there.
//
// Rules 1–2 are pure functions of deterministic inputs, so with a fixed
// worker count the pruned spans and counts are reproducible. Rule 3
// depends on completion order (like cache hits): the answer is always
// byte-identical, but how many objects are skipped can vary with the
// schedule.
package prune

import (
	"context"
	"sort"
	"sync"

	"webbase/internal/relation"
)

// Op is a comparison operator. The constants mirror algebra.CmpOp in
// order and meaning; package ur converts between the two (prune cannot
// import algebra, which imports prune).
type Op uint8

// Comparison operators.
const (
	EQ Op = iota
	NE
	LT
	LE
	GT
	GE
)

// holds reports whether "a op b" is true, with exactly the Value.Compare
// semantics the σ operators use — pruning must never disagree with the
// selection it is predicting.
func (op Op) holds(a, b relation.Value) bool {
	c := a.Compare(b)
	switch op {
	case EQ:
		return c == 0
	case NE:
		return c != 0
	case LT:
		return c < 0
	case LE:
		return c <= 0
	case GT:
		return c > 0
	default:
		return c >= 0
	}
}

// Cond is one conjunct of the query's WHERE clause: attribute-to-constant
// (Attr2 empty) or attribute-to-attribute.
type Cond struct {
	Attr  string
	Op    Op
	Val   relation.Value
	Attr2 string
}

// Pruning reasons, used as span labels and metric dimensions.
const (
	// ReasonUnsatWhere marks an access whose bound inputs (or the query's
	// statically unsatisfiable WHERE clause) guarantee every returned
	// tuple would be dropped by a selection.
	ReasonUnsatWhere = "unsat-where"
	// ReasonLimit marks a maximal object skipped because earlier objects
	// already satisfy LIMIT n.
	ReasonLimit = "limit"
)

// shared is the per-query mutable half of a State: the decision counters.
// Restricted views of a State (see Restrict) share it, so counts observed
// by the core layer cover every evaluation depth.
type shared struct {
	mu     sync.Mutex
	counts map[string]int64
}

// State is the compiled relevance state of one query: its conjuncts, the
// statically-derived unsatisfiability verdict, and (when armed) the LIMIT
// for the cardinality early-exit. A nil *State is inert: every method is
// nil-safe and reports "nothing prunable".
type State struct {
	conds []Cond
	unsat bool
	limit int
	sh    *shared
}

// NewState compiles the conjuncts. limit > 0 arms the cardinality
// early-exit (rule 3); the caller is responsible for only arming it when
// sound (no ORDER BY, or every sort key discharged by an equality
// constant — see ur.NewPruneState).
func NewState(conds []Cond, limit int) *State {
	return &State{
		conds: conds,
		unsat: staticallyUnsat(conds),
		limit: limit,
		sh:    &shared{counts: make(map[string]int64)},
	}
}

// staticallyUnsat detects conjunctions no tuple can satisfy — pairs of
// constant conditions on the same attribute that contradict each other,
// like Make = 'ford' AND Make = 'jaguar' or Year ≥ 1993 AND Year < 1990.
func staticallyUnsat(conds []Cond) bool {
	byAttr := make(map[string][]Cond)
	for _, c := range conds {
		if c.Attr2 != "" || c.Val.IsNull() {
			continue
		}
		byAttr[c.Attr] = append(byAttr[c.Attr], c)
	}
	for _, cs := range byAttr {
		for i := 0; i < len(cs); i++ {
			for j := i + 1; j < len(cs); j++ {
				if !pairConsistent(cs[i], cs[j]) {
					return true
				}
			}
		}
	}
	return false
}

// pairConsistent reports whether some value can satisfy both constant
// conditions. Equalities are decided by substitution; a lower bound
// (>, ≥) against an upper bound (<, ≤) is consistent only if the bounds
// leave room. Pairs this analysis cannot refute (two lower bounds, ≠
// against anything but =) are conservatively consistent.
func pairConsistent(a, b Cond) bool {
	if a.Op == EQ {
		return b.Op.holds(a.Val, b.Val)
	}
	if b.Op == EQ {
		return a.Op.holds(b.Val, a.Val)
	}
	lower := func(op Op) bool { return op == GT || op == GE }
	upper := func(op Op) bool { return op == LT || op == LE }
	var lo, hi Cond
	switch {
	case lower(a.Op) && upper(b.Op):
		lo, hi = a, b
	case upper(a.Op) && lower(b.Op):
		lo, hi = b, a
	default:
		return true
	}
	if lo.Op == GT || hi.Op == LT {
		return lo.Val.Compare(hi.Val) < 0
	}
	return lo.Val.Compare(hi.Val) <= 0
}

// Unsat reports whether the WHERE clause is statically unsatisfiable.
func (st *State) Unsat() bool { return st != nil && st.unsat }

// Irrelevant reports whether an access whose bound attribute values are
// exposed by get can no longer contribute answer tuples: some conjunct is
// already violated by non-null bound values (both sides, for
// attribute-to-attribute conditions), or the clause is statically
// unsatisfiable. Missing and null values never violate — an unbound
// attribute may still take any value.
func (st *State) Irrelevant(get func(attr string) (relation.Value, bool)) bool {
	if st == nil {
		return false
	}
	if st.unsat {
		return true
	}
	for _, c := range st.conds {
		lhs, ok := get(c.Attr)
		if !ok || lhs.IsNull() {
			continue
		}
		rhs := c.Val
		if c.Attr2 != "" {
			r, ok := get(c.Attr2)
			if !ok || r.IsNull() {
				continue
			}
			rhs = r
		}
		if !c.Op.holds(lhs, rhs) {
			return true
		}
	}
	return false
}

// IrrelevantInputs is Irrelevant over a populate input map — the form the
// VPS layer holds just before invoking a handle.
func (st *State) IrrelevantInputs(inputs map[string]relation.Value) bool {
	if st == nil {
		return false
	}
	return st.Irrelevant(func(a string) (relation.Value, bool) {
		v, ok := inputs[a]
		return v, ok
	})
}

// IrrelevantTuple is Irrelevant over one tuple of a relation — the form
// the dependent-join evaluator holds when deciding whether a feed tuple
// can still extend to an answer.
func (st *State) IrrelevantTuple(sch relation.Schema, t relation.Tuple) bool {
	if st == nil {
		return false
	}
	return st.Irrelevant(func(a string) (relation.Value, bool) {
		i := sch.IndexOf(a)
		if i < 0 {
			return relation.Value{}, false
		}
		return t[i], true
	})
}

// Restrict returns a view of the state containing only the conditions
// whose attributes all lie within sch, sharing the counters. The logical
// layer installs the restricted state before
// evaluating a view definition: an attribute a view uses internally but
// drops from its output is not the query's attribute of the same name,
// so conditions on it must not fire inside (the static-unsatisfiability
// verdict survives restriction — it empties the whole object regardless
// of which relation is being populated). Returns the receiver unchanged
// when every condition survives.
func (st *State) Restrict(sch relation.Schema) *State {
	if st == nil {
		return nil
	}
	keep := 0
	for _, c := range st.conds {
		if sch.Has(c.Attr) && (c.Attr2 == "" || sch.Has(c.Attr2)) {
			keep++
		}
	}
	if keep == len(st.conds) {
		return st
	}
	conds := make([]Cond, 0, keep)
	for _, c := range st.conds {
		if sch.Has(c.Attr) && (c.Attr2 == "" || sch.Has(c.Attr2)) {
			conds = append(conds, c)
		}
	}
	return &State{conds: conds, unsat: st.unsat, limit: 0, sh: st.sh}
}

// Count records one pruning decision under the given reason.
func (st *State) Count(reason string) {
	if st == nil {
		return
	}
	st.sh.mu.Lock()
	st.sh.counts[reason]++
	st.sh.mu.Unlock()
}

// Counts returns a copy of the per-reason decision counters.
func (st *State) Counts() map[string]int64 {
	if st == nil {
		return nil
	}
	st.sh.mu.Lock()
	defer st.sh.mu.Unlock()
	out := make(map[string]int64, len(st.sh.counts))
	for r, n := range st.sh.counts {
		out[r] = n
	}
	return out
}

// Total returns the total number of pruning decisions.
func (st *State) Total() int64 {
	if st == nil {
		return 0
	}
	st.sh.mu.Lock()
	defer st.sh.mu.Unlock()
	var n int64
	for _, c := range st.sh.counts {
		n += c
	}
	return n
}

// Reasons returns the recorded reasons sorted, for deterministic
// rendering.
func (st *State) Reasons() []string {
	if st == nil {
		return nil
	}
	st.sh.mu.Lock()
	defer st.sh.mu.Unlock()
	out := make([]string, 0, len(st.sh.counts))
	for r := range st.sh.counts {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// Limit returns the LIMIT the cardinality early-exit is armed with, 0 when
// it is not armed.
func (st *State) Limit() int {
	if st == nil {
		return 0
	}
	return st.limit
}

type ctxKey struct{}

// ContextWith attaches the state; the evaluation layers below pick it up.
func ContextWith(ctx context.Context, st *State) context.Context {
	return context.WithValue(ctx, ctxKey{}, st)
}

// FromContext returns the attached state, or nil (inert).
func FromContext(ctx context.Context) *State {
	st, _ := ctx.Value(ctxKey{}).(*State)
	return st
}
