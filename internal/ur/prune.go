package ur

import (
	"webbase/internal/algebra"
	"webbase/internal/prune"
)

// pruneOps maps the algebra's comparison operators onto the prune
// package's (prune sits below algebra and cannot import it).
var pruneOps = map[algebra.CmpOp]prune.Op{
	algebra.EQ: prune.EQ, algebra.NE: prune.NE,
	algebra.LT: prune.LT, algebra.LE: prune.LE,
	algebra.GT: prune.GT, algebra.GE: prune.GE,
}

// NewPruneState compiles the query's conjunctive WHERE clause into a
// runtime access-relevance state (package prune). Attach it with
// prune.ContextWith before EvalStream and every layer below consults it:
// handle invocations whose inputs violate the clause are skipped
// pre-fetch, dependent-join feeds whose upstream bindings are doomed are
// never invoked, and — when sound — maximal objects stop launching once
// LIMIT is satisfied. For that last rule the state only carries the LIMIT
// and counts the skips; EvalStream's gate holds the answer so far and
// decides from its length.
//
// The cardinality early-exit is armed only when truncation is oblivious
// to evaluation order: LIMIT n with no ORDER BY, or with every sort key
// discharged by an equality constant (then all answer tuples compare
// equal on every key, and the stable sort preserves plan-order union
// order, so the first n distinct union tuples are the answer).
func NewPruneState(q Query) *prune.State {
	conds := make([]prune.Cond, 0, len(q.Conditions))
	for _, c := range q.Conditions {
		op, ok := pruneOps[c.Op]
		if !ok {
			continue // unknown operator: never prune on it
		}
		conds = append(conds, prune.Cond{Attr: c.Attr, Op: op, Val: c.Val, Attr2: c.Attr2})
	}
	limit := 0
	if q.Limit > 0 && orderDischarged(q) {
		limit = q.Limit
	}
	return prune.NewState(conds, limit)
}

// orderDischarged reports whether every ORDER BY key is pinned to a
// single value by an equality-constant condition.
func orderDischarged(q Query) bool {
	for _, k := range q.OrderBy {
		pinned := false
		for _, c := range q.Conditions {
			if c.Attr == k.Attr && c.Op == algebra.EQ && c.Attr2 == "" {
				pinned = true
				break
			}
		}
		if !pinned {
			return false
		}
	}
	return true
}
