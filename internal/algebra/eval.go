package algebra

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"webbase/internal/prune"
	"webbase/internal/relation"
	"webbase/internal/trace"
	"webbase/internal/web"
)

// Eval evaluates the expression against the catalog. bound carries the
// attribute values already known to the evaluator — the constants of
// enclosing equality selections and, inside dependent joins, values taken
// from join partners. Base relations are populated through the catalog
// with exactly those bindings, which is what lets VPS relations (only
// accessible with mandatory attributes bound) be evaluated at all.
//
// Eval is the sequential entry point; EvalContext adds cancellation and
// (through the context's Pool) bounded parallel evaluation.
func Eval(e Expr, cat Catalog, bound map[string]relation.Value) (*relation.Relation, error) {
	return EvalContext(context.Background(), e, cat, bound)
}

// EvalContext is Eval with a context. Cancellation is checked before every
// base-relation access, so a cancelled query issues no further fetches and
// returns ctx.Err(). When the context carries a Pool (WithPool), union
// branches and dependent-join handle invocations evaluate concurrently,
// bounded by the pool; results are merged in expression order, so the
// answer is identical to the sequential one tuple for tuple. Errors keep
// the sequential surface: of several failing parallel branches, the
// leftmost branch's error is reported (sibling branches are not aborted
// mid-flight, but their results are discarded).
func EvalContext(ctx context.Context, e Expr, cat Catalog, bound map[string]relation.Value) (*relation.Relation, error) {
	var sp *trace.Span
	if parent := trace.FromContext(ctx); parent != nil {
		sp = parent.Start(trace.KindOp, opLabel(e)) // a label is built only for a span
	}
	return evalSpanned(ctx, sp, e, cat, bound)
}

// opLabel names an operator span: the operator symbol plus its own
// arguments, without recursing into inputs (the tree shape carries those).
func opLabel(e Expr) string {
	switch e := e.(type) {
	case *Scan:
		return e.Relation
	case *Select:
		return "σ[" + e.Cond.String() + "]"
	case *Project:
		return "π[" + strings.Join(e.Attrs, ", ") + "]"
	case *Rename:
		pairs := make([]string, 0, len(e.Mapping))
		for o, n := range e.Mapping {
			pairs = append(pairs, o+"→"+n)
		}
		sortStrings(pairs)
		return "ρ[" + strings.Join(pairs, ", ") + "]"
	case *Union:
		return "∪"
	case *RelaxedUnion:
		return "∪ʳ"
	case *Diff:
		return "−"
	case *Join:
		return "⋈"
	default:
		return fmt.Sprintf("%T", e)
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// opSpans pre-creates one operator span per branch of a parallel fan-out,
// in branch order, before any branch is dispatched — the discipline that
// keeps trace structure deterministic under parallel evaluation. Returns
// nil (all no-op spans) when the context carries no trace.
func opSpans(ctx context.Context, exprs []Expr) []*trace.Span {
	if trace.FromContext(ctx) == nil {
		return nil
	}
	sps := make([]*trace.Span, len(exprs))
	for i, e := range exprs {
		sps[i] = trace.Start(ctx, trace.KindOp, opLabel(e))
	}
	return sps
}

func spanAt(sps []*trace.Span, i int) *trace.Span {
	if sps == nil {
		return nil
	}
	return sps[i]
}

// evalSpanned evaluates e under an already-created span (possibly nil),
// recording the output cardinality and any error on it.
func evalSpanned(ctx context.Context, sp *trace.Span, e Expr, cat Catalog, bound map[string]relation.Value) (out *relation.Relation, err error) {
	if sp != nil {
		ctx = trace.ContextWith(ctx, sp)
		defer func() {
			if out != nil {
				sp.Set("tuples", int64(out.Len()))
			}
			sp.EndErr(err)
		}()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if bound == nil {
		bound = map[string]relation.Value{}
	}
	switch e := e.(type) {
	case *Scan:
		sch, err := cat.Schema(e.Relation)
		if err != nil {
			return nil, err
		}
		inputs := make(map[string]relation.Value)
		for a, v := range bound {
			if sch.Has(a) && !v.IsNull() {
				inputs[a] = v
			}
		}
		return cat.Populate(ctx, e.Relation, inputs)

	case *Select:
		sub := bound
		if e.Cond.Op == EQ && e.Cond.Attr2 == "" {
			// Push the constant down: it may satisfy a mandatory attribute
			// of a VPS relation underneath.
			sub = cloneBound(bound)
			sub[e.Cond.Attr] = e.Cond.Val
		}
		in, err := EvalContext(ctx, e.Input, cat, sub)
		if err != nil {
			return nil, err
		}
		sch := in.Schema()
		i := sch.IndexOf(e.Cond.Attr)
		if i < 0 {
			return nil, fmt.Errorf("algebra: σ attribute %q not in schema %v", e.Cond.Attr, sch)
		}
		j := -1
		if e.Cond.Attr2 != "" {
			if j = sch.IndexOf(e.Cond.Attr2); j < 0 {
				return nil, fmt.Errorf("algebra: σ attribute %q not in schema %v", e.Cond.Attr2, sch)
			}
		}
		return in.Select(func(t relation.Tuple) bool {
			rhs := e.Cond.Val
			if j >= 0 {
				rhs = t[j]
			}
			return e.Cond.Op.holds(t[i], rhs)
		}), nil

	case *Project:
		in, err := EvalContext(ctx, e.Input, cat, bound)
		if err != nil {
			return nil, err
		}
		return in.Project(e.Attrs...)

	case *Rename:
		// Bound values arrive under the new names; the subtree knows the
		// old ones.
		reverse := make(map[string]string, len(e.Mapping))
		for o, n := range e.Mapping {
			reverse[n] = o
		}
		sub := make(map[string]relation.Value, len(bound))
		for a, v := range bound {
			if o, ok := reverse[a]; ok {
				sub[o] = v
			} else {
				sub[a] = v
			}
		}
		in, err := EvalContext(ctx, e.Input, cat, sub)
		if err != nil {
			return nil, err
		}
		return in.Rename(in.Name(), e.Mapping), nil

	case *Union:
		// Union chains evaluate as one flat fan-out rather than pairwise
		// recursion: every leaf re-tries token acquisition when its turn
		// comes, so tokens freed by fast branches are picked up by later
		// ones instead of the whole right spine running sequentially.
		leaves := flattenUnion(e)
		rels := make([]*relation.Relation, len(leaves))
		sps := opSpans(ctx, leaves)
		errs := ForEach(ctx, len(leaves), true, func(i int) error {
			rel, err := evalSpanned(ctx, spanAt(sps, i), leaves[i], cat, bound)
			rels[i] = rel
			return err
		})
		if err := firstError(errs); err != nil {
			return nil, err
		}
		return relation.UnionAll(rels)

	case *RelaxedUnion:
		sch, err := e.Schema(cat)
		if err != nil {
			return nil, err
		}
		// Every branch always evaluates (no short-circuit): a binding
		// failure on one must not suppress the others' partial answers.
		// Like Union, chains flatten into one fan-out; merging in leaf
		// order reproduces the pairwise result exactly.
		leaves := flattenRelaxedUnion(e)
		rels := make([]*relation.Relation, len(leaves))
		sps := opSpans(ctx, leaves)
		errs := ForEach(ctx, len(leaves), false, func(i int) error {
			rel, err := evalSpanned(ctx, spanAt(sps, i), leaves[i], cat, bound)
			rels[i] = rel
			return err
		})
		for i, lerr := range errs {
			switch {
			case lerr == nil:
			case bindingFailure(lerr):
				// This branch is unreachable with the current bindings:
				// drop it, keep the partial answer.
				rels[i] = nil
			default:
				return nil, lerr
			}
		}
		acc, err := relation.UnionAll(rels)
		if acc == nil && err == nil {
			// No branch reachable with these bindings: empty partial
			// answer rather than an error — the relaxed semantics.
			acc = relation.New("", sch)
		}
		return acc, err

	case *Diff:
		l, err := EvalContext(ctx, e.Left, cat, bound)
		if err != nil {
			return nil, err
		}
		r, err := EvalContext(ctx, e.Right, cat, bound)
		if err != nil {
			return nil, err
		}
		return l.Diff(r)

	case *Join:
		return evalJoin(ctx, e, cat, bound)

	default:
		return nil, fmt.Errorf("algebra: eval of unknown expression %T", e)
	}
}

// flattenUnion returns the leaf expressions of a maximal ∪-subtree in
// left-to-right order. Union is associative and the evaluator's merge
// deduplicates in leaf order, so a left fold over the leaves equals the
// nested pairwise evaluation tuple for tuple.
func flattenUnion(e Expr) []Expr {
	if u, ok := e.(*Union); ok {
		return append(flattenUnion(u.Left), flattenUnion(u.Right)...)
	}
	return []Expr{e}
}

// flattenRelaxedUnion is flattenUnion for ∪ʳ-subtrees.
func flattenRelaxedUnion(e Expr) []Expr {
	if u, ok := e.(*RelaxedUnion); ok {
		return append(flattenRelaxedUnion(u.Left), flattenRelaxedUnion(u.Right)...)
	}
	return []Expr{e}
}

// evalJoin flattens the join tree, orders the operands under the binding
// constraints (greedy first, exhaustive as fallback), and evaluates them
// as a chain of dependent joins: each operand is populated once per
// distinct combination of join-attribute values in the accumulated result,
// those values serving as its inputs.
func evalJoin(ctx context.Context, j *Join, cat Catalog, bound map[string]relation.Value) (*relation.Relation, error) {
	exprs := flattenJoin(j)
	ops := make([]Operand, len(exprs))
	for i, e := range exprs {
		sch, err := e.Schema(cat)
		if err != nil {
			return nil, err
		}
		bs, err := Bindings(e, cat)
		if err != nil {
			return nil, err
		}
		ops[i] = Operand{Schema: sch, Bindings: bs}
	}
	boundSet := relation.NewAttrSet()
	for a, v := range bound {
		if !v.IsNull() {
			boundSet.Add(a)
		}
	}
	order, err := orderJoin(ops, boundSet)
	if errors.Is(err, ErrNoOrdering) {
		// Naming an operand prints it, σ conditions and all, and only this
		// error reads the names: they are built here, and the ordering run
		// again to say which operands are stuck.
		for i, e := range exprs {
			ops[i].Name = e.String()
		}
		_, err = orderJoin(ops, boundSet)
	}
	if err != nil {
		return nil, err
	}

	acc, err := EvalContext(ctx, exprs[order[0]], cat, bound)
	if err != nil {
		return nil, err
	}
	for _, idx := range order[1:] {
		acc, err = dependentJoin(ctx, acc, exprs[idx], ops[idx].Schema, cat, bound)
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// orderJoin orders a join's operands. Small joins afford the exhaustive
// min-cost planner (operands fed by query constants run before operands
// needing dependent feeding); larger joins fall back to the complete greedy
// closure.
func orderJoin(ops []Operand, bound relation.AttrSet) ([]int, error) {
	if len(ops) <= 8 {
		return MinCostOrder(ops, bound, nil)
	}
	return GreedyOrder(ops, bound)
}

// dependentJoin evaluates next once per distinct combination in acc of the
// shared attributes next can forward (sideways information passing) and
// joins the union of the per-combination results with acc. A shared
// attribute no handle under next forwards is not fed — k values of it would
// repeat one navigation k times and post-filter it k ways — and is matched
// by the natural join instead. The invocations are independent handle
// calls, so they run in parallel when the context carries a pool; the
// parts are merged in combination order, keeping the output deterministic.
func dependentJoin(ctx context.Context, acc *relation.Relation, next Expr, nextSchema relation.Schema,
	cat Catalog, bound map[string]relation.Value) (*relation.Relation, error) {

	shared := nextSchema.Intersect(acc.Schema())
	if len(shared) == 0 {
		r, err := EvalContext(ctx, next, cat, bound)
		if err != nil {
			return nil, err
		}
		return acc.NaturalJoin(r), nil
	}
	// A row with a null in a shared attribute never joins, fed or not: it
	// must neither cause an invocation nor meet the natural join below.
	accSch := acc.Schema()
	acc = acc.Select(func(t relation.Tuple) bool {
		for _, a := range shared {
			if t[accSch.IndexOf(a)].IsNull() {
				return false
			}
		}
		return true
	})
	forwardable := Forwardable(next, cat)
	var feed relation.Schema
	for _, a := range shared {
		if forwardable.Has(a) {
			feed = append(feed, a)
		}
	}
	combos, err := acc.Project(feed...)
	if err != nil {
		return nil, err
	}
	tuples := combos.Tuples()
	parts := make([]*relation.Relation, len(tuples))
	// Runtime access relevance, dependent-join form: a feed tuple whose
	// bound attributes already violate the query's WHERE clause cannot
	// extend to an answer tuple — every row it produces dies in a
	// selection above this join. A combination all of whose source tuples
	// are doomed is never invoked (its pre-created span records the
	// decision instead); combinations with at least one live source tuple
	// still invoke, and any doomed rows they produce are filtered by the
	// selections exactly as without pruning, so the join output is
	// byte-identical. Leaf populates post-filter their results onto the
	// fed inputs, so a part tuple always carries its combination's values.
	var prunedCombo []bool
	if st := prune.FromContext(ctx); st != nil && len(tuples) > 0 {
		live := acc.Select(func(t relation.Tuple) bool { return !st.IrrelevantTuple(accSch, t) })
		if live.Len() != acc.Len() {
			liveCombos, err := live.Project(feed...)
			if err != nil {
				return nil, err
			}
			var liveSet relation.Set
			for _, t := range liveCombos.Tuples() {
				liveSet.Add(t)
			}
			prunedCombo = make([]bool, len(tuples))
			for i, t := range tuples {
				prunedCombo[i] = !liveSet.Has(t)
			}
		}
	}
	// One invoke span per combination, pre-created in combination order
	// (tuple order is deterministic, so span order is too). All combinations
	// share one name; the rendered plan aggregates them into invocations=N.
	var sps []*trace.Span
	if trace.FromContext(ctx) != nil {
		name := "invoke {" + strings.Join(feed, ", ") + "} → " + opLabel(next)
		sps = make([]*trace.Span, len(tuples))
		for i := range tuples {
			sps[i] = trace.Start(ctx, trace.KindInvoke, name)
		}
	}
	errs := ForEach(ctx, len(tuples), true, func(i int) error {
		sp := spanAt(sps, i)
		ictx := ctx
		if sp != nil {
			ictx = trace.ContextWith(ctx, sp)
		}
		// Relevance pruning precedes the budget check: an irrelevant
		// invocation is free, so it must not consume a budget verdict (a
		// pruned-then-doomed invocation would otherwise surface as a
		// budget degradation the unpruned run never saw for free work).
		if prunedCombo != nil && prunedCombo[i] {
			prune.FromContext(ctx).Count(prune.ReasonUnsatWhere)
			sp.Set("pruned", 1)
			sp.Label("pruned-reason", prune.ReasonUnsatWhere)
			sp.End()
			return nil // every source tuple of this combination is doomed
		}
		// Deadline budget: an invocation is the unit of new work at this
		// layer; refuse to start one once the owning object's budget is
		// gone (work already invoked is allowed to finish).
		if web.BudgetFrom(ctx).Exhausted() {
			err := web.MarkOutage(fmt.Errorf("algebra: dependent-join invocation refused: %w",
				web.ErrBudgetExhausted))
			sp.Set("budget-exhausted", 1)
			sp.EndErr(err)
			return err
		}
		inputs := cloneBound(bound)
		for k, a := range feed {
			inputs[a] = tuples[i][k]
		}
		part, err := EvalContext(ictx, next, cat, inputs)
		if err != nil {
			sp.EndErr(err)
			return err
		}
		parts[i] = part
		sp.Set("tuples", int64(part.Len()))
		sp.End()
		return nil
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	// A single part is deduplicated exactly as several are.
	merged, err := relation.UnionAll(parts)
	if err != nil {
		return nil, err
	}
	if merged == nil {
		// No usable combinations: the join is empty.
		return relation.New("", acc.Schema().Union(nextSchema)), nil
	}
	return acc.NaturalJoin(merged), nil
}

// bindingFailure reports whether err means "this subexpression cannot be
// accessed with the current bindings" (as opposed to a hard failure).
// Catalog adapters over the VPS translate their no-usable-handle errors
// into ErrBindingUnsatisfied so relaxed unions can skip the side.
func bindingFailure(err error) bool {
	return errors.Is(err, ErrBindingUnsatisfied) || errors.Is(err, ErrNoOrdering)
}

// flattenJoin returns the operand expressions of a maximal join subtree in
// left-to-right order.
func flattenJoin(e Expr) []Expr {
	if j, ok := e.(*Join); ok {
		return append(flattenJoin(j.Left), flattenJoin(j.Right)...)
	}
	return []Expr{e}
}

func cloneBound(bound map[string]relation.Value) map[string]relation.Value {
	out := make(map[string]relation.Value, len(bound))
	for a, v := range bound {
		out[a] = v
	}
	return out
}
