package algebra

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"

	"webbase/internal/lend"
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
// Cancellation is checked before every base-relation access, so a
// cancelled query issues no further fetches and returns ctx.Err(). When
// the context carries a Pool (WithPool), union branches and dependent-join
// handle invocations evaluate concurrently, bounded by the pool; without
// one they run on the calling goroutine. Results are merged in expression
// order, so the answer is the same tuple for tuple at any worker count.
// Every branch runs whatever the pool (ForEach), so the fetches made are
// the same too. Of several failing branches, the leftmost branch's error
// is reported (its siblings still run, but their results are discarded).
func Eval(ctx context.Context, e Expr, cat Catalog, bound map[string]relation.Value) (*relation.Relation, error) {
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

// leafTasks is a union's fan-out: leaf i evaluated under span i into
// rels[i], each under the union's bindings (ForEachOf).
type leafTasks struct {
	ctx    context.Context
	sps    []*trace.Span
	leaves []Expr
	cat    Catalog
	bound  map[string]relation.Value
	rels   []*relation.Relation
}

func newLeafTasks(ctx context.Context, leaves []Expr, cat Catalog, bound map[string]relation.Value) leafTasks {
	return leafTasks{ctx: ctx, sps: opSpans(ctx, leaves), leaves: leaves, cat: cat, bound: bound,
		rels: make([]*relation.Relation, len(leaves))}
}

func (f leafTasks) eval(i int) error {
	rel, err := evalSpanned(f.ctx, spanAt(f.sps, i), f.leaves[i], f.cat, f.bound)
	f.rels[i] = rel
	return err
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
	switch e := e.(type) {
	case *Scan:
		sch, err := cat.Schema(e.Relation)
		if err != nil {
			return nil, err
		}
		return cat.Populate(ctx, e.Relation, scanInputs(bound, sch))

	case *Select:
		var in *relation.Relation
		var err error
		if e.Cond.Op == EQ && e.Cond.Attr2 == "" {
			// Push the constant down: it may satisfy a mandatory attribute
			// of a VPS relation underneath. The bindings live as long as
			// the input's evaluation.
			sub := bindingMaps.Borrow()
			maps.Copy(*sub, bound)
			(*sub)[e.Cond.Attr] = e.Cond.Val
			in, err = Eval(ctx, e.Input, cat, *sub)
			bindingMaps.Return(sub)
		} else {
			in, err = Eval(ctx, e.Input, cat, bound)
		}
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
		return in.Filter(func(t relation.Tuple) bool {
			rhs := e.Cond.Val
			if j >= 0 {
				rhs = t[j]
			}
			return e.Cond.Op.holds(t[i], rhs)
		}), nil

	case *Project:
		in, err := Eval(ctx, e.Input, cat, bound)
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
		in, err := Eval(ctx, e.Input, cat, sub)
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
		tasks := newLeafTasks(ctx, leaves, cat, bound)
		var at [8]error
		errs := ForEachOf(ctx, errorSlots(at[:], len(leaves)), tasks, leafTasks.eval)
		if err := firstError(errs); err != nil {
			return nil, err
		}
		return relation.UnionAll(tasks.rels)

	case *RelaxedUnion:
		sch, err := e.Schema(cat)
		if err != nil {
			return nil, err
		}
		// A binding failure on one branch must not suppress the others'
		// partial answers. Like Union, chains flatten into one fan-out;
		// merging in leaf order reproduces the pairwise result exactly.
		leaves := flattenRelaxedUnion(e)
		tasks := newLeafTasks(ctx, leaves, cat, bound)
		rels := tasks.rels
		var at [8]error
		errs := ForEachOf(ctx, errorSlots(at[:], len(leaves)), tasks, leafTasks.eval)
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
		l, err := Eval(ctx, e.Left, cat, bound)
		if err != nil {
			return nil, err
		}
		r, err := Eval(ctx, e.Right, cat, bound)
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
// nested pairwise evaluation tuple for tuple. The leaves are appended to
// one slice.
func flattenUnion(e Expr) []Expr { return appendUnionLeaves(make([]Expr, 0, keptLeaves), e) }

func appendUnionLeaves(leaves []Expr, e Expr) []Expr {
	if u, ok := e.(*Union); ok {
		return appendUnionLeaves(appendUnionLeaves(leaves, u.Left), u.Right)
	}
	return append(leaves, e)
}

// flattenRelaxedUnion is flattenUnion for ∪ʳ-subtrees.
func flattenRelaxedUnion(e Expr) []Expr {
	return appendRelaxedLeaves(make([]Expr, 0, keptLeaves), e)
}

func appendRelaxedLeaves(leaves []Expr, e Expr) []Expr {
	if u, ok := e.(*RelaxedUnion); ok {
		return appendRelaxedLeaves(appendRelaxedLeaves(leaves, u.Left), u.Right)
	}
	return append(leaves, e)
}

// keptLeaves is the room a union's leaf list starts with: the leaves of a
// union of up to this many go in one slice.
const keptLeaves = 8

// evalJoin flattens the join tree, orders the operands under the binding
// constraints (greedy first, exhaustive as fallback), and evaluates them
// as a chain of dependent joins: each operand is populated once per
// distinct combination of join-attribute values in the accumulated result,
// those values serving as its inputs.
func evalJoin(ctx context.Context, j *Join, cat Catalog, bound map[string]relation.Value) (*relation.Relation, error) {
	exprs := joinOperands(j)
	jp, err := j.analysis(exprs, cat)
	if err != nil {
		return nil, err
	}
	order, err := jp.order(exprs, bound)
	if err != nil {
		return nil, err
	}

	acc, err := Eval(ctx, exprs[order[0]], cat, bound)
	if err != nil {
		return nil, err
	}
	for _, idx := range order[1:] {
		acc, err = dependentJoin(ctx, acc, exprs[idx], jp.ops[idx].Schema, jp.forwardable[idx], cat, bound)
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
// shared attributes in forwardable, those next can forward (sideways
// information passing), and joins the union of the per-combination results
// with acc. A shared attribute no handle under next forwards is not fed — k
// values of it would repeat one navigation k times and post-filter it k
// ways — and is matched by the natural join instead. The invocations are independent handle
// calls, so they run in parallel when the context carries a pool; the
// parts are merged in combination order, keeping the output deterministic.
func dependentJoin(ctx context.Context, acc *relation.Relation, next Expr, nextSchema relation.Schema,
	forwardable relation.AttrSet, cat Catalog, bound map[string]relation.Value) (*relation.Relation, error) {

	// The shared attributes, in next's order, as positions in acc.
	accSch := acc.Schema()
	var sharedBuf [16]int
	shared := sharedBuf[:0]
	for _, a := range nextSchema {
		if i := accSch.IndexOf(a); i >= 0 {
			shared = append(shared, i)
		}
	}
	if len(shared) == 0 {
		r, err := Eval(ctx, next, cat, bound)
		if err != nil {
			return nil, err
		}
		return acc.NaturalJoin(r), nil
	}
	// A row with a null in a shared attribute never joins, fed or not: it
	// must neither cause an invocation nor meet the natural join below.
	acc = acc.Filter(func(t relation.Tuple) bool {
		for _, i := range shared {
			if t[i].IsNull() {
				return false
			}
		}
		return true
	})
	var feedBuf [16]int
	feed := feedBuf[:0]
	for _, i := range shared {
		if forwardable.Has(accSch[i]) {
			feed = append(feed, i)
		}
	}
	// A combination is the first row of acc with its feed values: its
	// inputs are read off that row through combos.Cols.
	combos := acc.Combos(feed)
	defer combos.Release()
	rows := acc.Tuples()
	parts := make([]*relation.Relation, len(combos.First))
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
	if st := prune.FromContext(ctx); st != nil && len(combos.First) > 0 {
		doomed := func(t relation.Tuple) bool { return st.IrrelevantTuple(accSch, t) }
		if first := slices.IndexFunc(rows, doomed); first >= 0 {
			// A combination is live when a row that is not doomed has its
			// values.
			prunedCombo = make([]bool, len(combos.First))
			for i := range prunedCombo {
				prunedCombo[i] = true
			}
			for p, t := range rows {
				if p < first || p > first && !doomed(t) {
					prunedCombo[combos.Of[p]] = false
				}
			}
		}
	}
	// One invoke span per combination, pre-created in combination order
	// (row order is deterministic, so span order is too). All combinations
	// share one name; the rendered plan aggregates them into invocations=N.
	var sps []*trace.Span
	if trace.FromContext(ctx) != nil {
		names := make([]string, len(combos.Cols))
		for k, c := range combos.Cols {
			names[k] = accSch[c]
		}
		name := "invoke {" + strings.Join(names, ", ") + "} → " + opLabel(next)
		sps = make([]*trace.Span, len(combos.First))
		for i := range combos.First {
			sps[i] = trace.Start(ctx, trace.KindInvoke, name)
		}
	}
	tasks := invocations{ctx: ctx, next: next, nextSchema: nextSchema, cat: cat, bound: bound,
		accSch: accSch, rows: rows, combos: combos, sps: sps, pruned: prunedCombo, parts: parts}
	var at [8]error
	errs := ForEachOf(ctx, errorSlots(at[:], len(combos.First)), tasks, invocations.invoke)
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

// invocations is a dependent join's fan-out: combination i of acc's rows
// invoked under span i into parts[i] (ForEachOf).
type invocations struct {
	ctx        context.Context
	next       Expr
	nextSchema relation.Schema
	cat        Catalog
	bound      map[string]relation.Value
	accSch     relation.Schema
	rows       []relation.Tuple
	combos     relation.Combos
	sps        []*trace.Span
	pruned     []bool // the combinations whose every row is doomed; nil when none is
	parts      []*relation.Relation
}

func (f invocations) invoke(i int) error {
	sp := spanAt(f.sps, i)
	ictx := f.ctx
	if sp != nil {
		ictx = trace.ContextWith(f.ctx, sp)
	}
	// Relevance pruning precedes the budget check: an irrelevant
	// invocation is free, so it must not consume a budget verdict (a
	// pruned-then-doomed invocation would otherwise surface as a
	// budget degradation the unpruned run never saw for free work).
	if f.pruned != nil && f.pruned[i] {
		prune.FromContext(f.ctx).Count(prune.ReasonUnsatWhere)
		sp.Set("pruned", 1)
		sp.Label("pruned-reason", prune.ReasonUnsatWhere)
		sp.End()
		return nil // every source tuple of this combination is doomed
	}
	// Deadline budget: an invocation is the unit of new work at this
	// layer; refuse to start one once the owning object's budget is
	// gone (work already invoked is allowed to finish).
	if web.BudgetFrom(f.ctx).Exhausted() {
		err := web.MarkOutage(fmt.Errorf("algebra: dependent-join invocation refused: %w",
			web.ErrBudgetExhausted))
		sp.Set("budget-exhausted", 1)
		sp.EndErr(err)
		return err
	}
	// A fed scan is handed only its schema's values, so that
	// scanInputs finds nothing to filter and copies nothing again.
	// The combination's bindings live as long as its evaluation.
	lent := bindingMaps.Borrow()
	inputs := *lent
	if _, ok := f.next.(*Scan); ok {
		for a, v := range f.bound {
			if f.nextSchema.Has(a) && !v.IsNull() {
				inputs[a] = v
			}
		}
	} else {
		maps.Copy(inputs, f.bound)
	}
	row := f.rows[f.combos.First[i]]
	for _, c := range f.combos.Cols {
		inputs[f.accSch[c]] = row[c]
	}
	part, err := Eval(ictx, f.next, f.cat, inputs)
	bindingMaps.Return(lent)
	if err != nil {
		sp.EndErr(err)
		return err
	}
	f.parts[i] = part
	sp.Set("tuples", int64(part.Len()))
	sp.End()
	return nil
}

// bindingFailure reports whether err means "this subexpression cannot be
// accessed with the current bindings" (as opposed to a hard failure).
// Catalog adapters over the VPS translate their no-usable-handle errors
// into ErrBindingUnsatisfied so relaxed unions can skip the side.
func bindingFailure(err error) bool {
	return errors.Is(err, ErrBindingUnsatisfied) || errors.Is(err, ErrNoOrdering)
}

// keptBindings is how many idle bindings maps wait for the next frames:
// a query holds a few at once on each of its goroutines.
const keptBindings = 16

// bindingMaps lends the bindings an evaluation frame builds and nothing
// outlives: a σ's pushed-down constant and a fed combination's inputs.
// A map is returned when the Eval it was handed to returns: ForEach waits
// for every branch it starts, and a catalog reads its inputs only while
// Populate runs (Catalog), so no reader of a returned map is left.
var bindingMaps = lend.Maps[string, relation.Value](keptBindings)

// scanInputs is bound restricted to the non-null values of sch's
// attributes: bound itself when it holds nothing else, as it usually does.
// Populate only reads its inputs, so the leaves under one map share it.
func scanInputs(bound map[string]relation.Value, sch relation.Schema) map[string]relation.Value {
	unused := func(a string, v relation.Value) bool { return !sch.Has(a) || v.IsNull() }
	for a, v := range bound {
		if unused(a, v) {
			inputs := maps.Clone(bound)
			maps.DeleteFunc(inputs, unused)
			return inputs
		}
	}
	return bound
}
