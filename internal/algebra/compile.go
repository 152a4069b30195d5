package algebra

import (
	"errors"
	"slices"
	"sync"

	"webbase/internal/relation"
)

// joinPlan is what evaluating a join needs to know that no bound value can
// change: each operand's schema and minimized binding sets, what each
// operand can forward, and the orderings found so far. analyzeJoin derives
// it; a compiled join (Compile) keeps the result, and any other join derives
// it afresh each time it is evaluated.
type joinPlan struct {
	ops         []Operand // the flattened operands, left to right; no Name
	forwardable []relation.AttrSet
	// relevant lists every attribute that some operand's binding set names.
	// An ordering reads the bound attributes only through those sets
	// (executable, DefaultCost), so which of these are bound decides it.
	relevant []string

	mu     sync.Mutex
	orders map[uint64][]int // by boundMask; successes only
}

// maxOrders bounds the orderings one join keeps.
const maxOrders = 64

// analyzeJoin derives the plan of the join whose flattened operands are
// exprs.
func analyzeJoin(exprs []Expr, cat Catalog) (*joinPlan, error) {
	jp := &joinPlan{ops: make([]Operand, len(exprs)), forwardable: make([]relation.AttrSet, len(exprs))}
	for i, e := range exprs {
		sch, err := e.Schema(cat)
		if err != nil {
			return nil, err
		}
		bs, err := Bindings(e, cat)
		if err != nil {
			return nil, err
		}
		jp.ops[i] = Operand{Schema: sch, Bindings: bs}
		jp.forwardable[i] = Forwardable(e, cat)
		for _, b := range bs {
			for a := range b {
				if !slices.Contains(jp.relevant, a) {
					jp.relevant = append(jp.relevant, a)
				}
			}
		}
	}
	return jp, nil
}

// analysis is the join's plan: the one Compile kept, or a fresh one.
func (j *Join) analysis(exprs []Expr, cat Catalog) (*joinPlan, error) {
	if j.plan != nil {
		return j.plan, nil
	}
	return analyzeJoin(exprs, cat)
}

// boundMask is the set of relevant attributes bound to a non-null value,
// one bit each; ok is false when there are too many to key.
func (jp *joinPlan) boundMask(bound map[string]relation.Value) (mask uint64, ok bool) {
	if len(jp.relevant) > 64 {
		return 0, false
	}
	for i, a := range jp.relevant {
		if v, has := bound[a]; has && !v.IsNull() {
			mask |= 1 << uint(i)
		}
	}
	return mask, true
}

// order is orderJoin's ordering of the operands exprs under bound, kept by
// the bound relevant attributes. A failure is not kept: its ErrNoOrdering
// names the operands, constants and all, and the bound set in full.
func (jp *joinPlan) order(exprs []Expr, bound map[string]relation.Value) ([]int, error) {
	mask, keyed := jp.boundMask(bound)
	if keyed {
		jp.mu.Lock()
		order, ok := jp.orders[mask]
		jp.mu.Unlock()
		if ok {
			return order, nil
		}
	}
	boundSet := relation.NewAttrSet()
	for a, v := range bound {
		if !v.IsNull() {
			boundSet.Add(a)
		}
	}
	order, err := orderJoin(jp.ops, boundSet)
	if errors.Is(err, ErrNoOrdering) {
		// Naming an operand prints it, σ conditions and all, and only this
		// error reads the names: they are built here, on a copy, and the
		// ordering run again to say which operands are stuck.
		ops := slices.Clone(jp.ops)
		for i, e := range exprs {
			ops[i].Name = e.String()
		}
		_, err = orderJoin(ops, boundSet)
	}
	if err != nil {
		return nil, err
	}
	if keyed {
		jp.mu.Lock()
		if jp.orders == nil {
			jp.orders = make(map[uint64][]int)
		}
		if len(jp.orders) < maxOrders {
			jp.orders[mask] = order
		}
		jp.mu.Unlock()
	}
	return order, nil
}

// joinOperands returns the operand expressions of a maximal join subtree
// in left-to-right order.
func joinOperands(j *Join) []Expr {
	return appendOperands(make([]Expr, 0, countOperands(j)), j)
}

func countOperands(e Expr) int {
	if j, ok := e.(*Join); ok {
		return countOperands(j.Left) + countOperands(j.Right)
	}
	return 1
}

func appendOperands(dst []Expr, e Expr) []Expr {
	if j, ok := e.(*Join); ok {
		return appendOperands(appendOperands(dst, j.Left), j.Right)
	}
	return append(dst, e)
}

// Compile returns a copy of e in which every join keeps its plan against
// cat: its operands' schemas, binding sets and forwardable sets, and the
// orderings its evaluations find. The plan depends on the shape of e, not on
// its constants, so WithConstants may fill new ones in. A join whose plan
// cannot be derived stays bare, and evaluating it fails as it would have.
// The compiled expression renders as e and evaluates as e does over cat,
// or over any catalog that answers Schema, Bindings and Forwardable as cat
// does.
func Compile(e Expr, cat Catalog) Expr {
	switch e := e.(type) {
	case *Select:
		return &Select{Input: Compile(e.Input, cat), Cond: e.Cond}
	case *Project:
		return &Project{Input: Compile(e.Input, cat), Attrs: e.Attrs}
	case *Rename:
		return &Rename{Input: Compile(e.Input, cat), Mapping: e.Mapping}
	case *Union:
		return &Union{Left: Compile(e.Left, cat), Right: Compile(e.Right, cat)}
	case *RelaxedUnion:
		return &RelaxedUnion{Left: Compile(e.Left, cat), Right: Compile(e.Right, cat)}
	case *Diff:
		return &Diff{Left: Compile(e.Left, cat), Right: Compile(e.Right, cat)}
	case *Join:
		root := compileJoinTree(e, cat).(*Join)
		if jp, err := analyzeJoin(joinOperands(root), cat); err == nil {
			root.plan = jp
		}
		return root
	default:
		return e
	}
}

// compileJoinTree copies a maximal join subtree, shape kept, compiling its
// operands.
func compileJoinTree(e Expr, cat Catalog) Expr {
	if j, ok := e.(*Join); ok {
		return &Join{Left: compileJoinTree(j.Left, cat), Right: compileJoinTree(j.Right, cat)}
	}
	return Compile(e, cat)
}

// WithConstants returns e with the constant of every attribute-to-constant
// selection replaced by val(its condition). Those selections and their
// ancestors are copied, and a copied join keeps its plan; every other
// subtree is e's own.
func WithConstants(e Expr, val func(Condition) relation.Value) Expr {
	out, _ := withConstants(e, val)
	return out
}

func withConstants(e Expr, val func(Condition) relation.Value) (Expr, bool) {
	switch e := e.(type) {
	case *Select:
		in, changed := withConstants(e.Input, val)
		cond := e.Cond
		if cond.Attr2 == "" {
			cond.Val = val(cond)
		} else if !changed {
			return e, false
		}
		return &Select{Input: in, Cond: cond}, true
	case *Project:
		if in, changed := withConstants(e.Input, val); changed {
			return &Project{Input: in, Attrs: e.Attrs}, true
		}
	case *Rename:
		if in, changed := withConstants(e.Input, val); changed {
			return &Rename{Input: in, Mapping: e.Mapping}, true
		}
	case *Join:
		if l, r, changed := bothWithConstants(e.Left, e.Right, val); changed {
			return &Join{Left: l, Right: r, plan: e.plan}, true
		}
	case *Union:
		if l, r, changed := bothWithConstants(e.Left, e.Right, val); changed {
			return &Union{Left: l, Right: r}, true
		}
	case *RelaxedUnion:
		if l, r, changed := bothWithConstants(e.Left, e.Right, val); changed {
			return &RelaxedUnion{Left: l, Right: r}, true
		}
	case *Diff:
		if l, r, changed := bothWithConstants(e.Left, e.Right, val); changed {
			return &Diff{Left: l, Right: r}, true
		}
	}
	return e, false
}

func bothWithConstants(left, right Expr, val func(Condition) relation.Value) (Expr, Expr, bool) {
	l, lc := withConstants(left, val)
	r, rc := withConstants(right, val)
	return l, r, lc || rc
}
