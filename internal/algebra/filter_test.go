package algebra

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"webbase/internal/prune"
	"webbase/internal/relation"
)

// returningCatalog keeps every relation its Populate returned.
type returningCatalog struct {
	*MemCatalog
	mu       sync.Mutex
	returned []*relation.Relation
}

func (c *returningCatalog) Populate(ctx context.Context, name string, inputs map[string]relation.Value) (*relation.Relation, error) {
	rel, err := c.MemCatalog.Populate(ctx, name, inputs)
	c.mu.Lock()
	c.returned = append(c.returned, rel)
	c.mu.Unlock()
	return rel, err
}

// lotsCatalog: lots and lots2 (Make, Year, Price) are reachable with a
// Make, and book (Make, Year, BBPrice) with a Make; lots has two rows for
// 1994 and for 1995, and lots2 repeats one row of lots.
func lotsCatalog() *returningCatalog {
	cat := NewMemCatalog()
	add := func(name string, sch relation.Schema, rows ...[3]int64) {
		rel := relation.New(name, sch)
		for _, r := range rows {
			rel.MustInsert(relation.String("ford"), relation.Int(r[0]), relation.Int(r[1]))
		}
		rel.MustInsert(relation.String("chevy"), relation.Int(1994), relation.Int(2500))
		cat.Add(rel, relation.NewAttrSet("Make"))
	}
	lots := relation.NewSchema("Make", "Year", "Price")
	add("lots", lots, [3]int64{1994, 3000}, [3]int64{1995, 9000}, [3]int64{1994, 7000}, [3]int64{1996, 1000}, [3]int64{1995, 8000})
	add("lots2", lots, [3]int64{1997, 4000}, [3]int64{1995, 9000})
	add("book", relation.NewSchema("Make", "Year", "BBPrice"), [3]int64{1994, 3500}, [3]int64{1995, 8500}, [3]int64{1996, 1200}, [3]int64{1997, 4000})
	return &returningCatalog{MemCatalog: cat}
}

// TestEvalLeavesCatalogRelationsAlone: a σ every tuple passes hands on its
// input itself, so the relations an evaluation returns may be the ones
// its catalog returned. Evaluating σ chains, a projection, a union, a fed
// join and a pruned fed join, at Workers 1 and 8, leaves every stored
// relation as it was, an all-pass σ over a scan answers the scan's own
// relation, and every answer is the one the evaluator gave when each σ
// built a relation of its own.
func TestEvalLeavesCatalogRelationsAlone(t *testing.T) {
	ford := func(name string) Expr { return &Select{Input: scan(name), Cond: eqCond("Make", "ford")} }
	cmp := func(attr string, op CmpOp, v int64) Condition {
		return Condition{Attr: attr, Op: op, Val: relation.Int(v)}
	}
	fedJoin := &Join{Left: ford("lots"), Right: scan("book")}
	cases := []struct {
		name  string
		expr  Expr
		prune []prune.Cond
		want  string
	}{
		{"σ chain", &Select{Input: &Select{Input: ford("lots"), Cond: cmp("Year", GT, 1990)}, Cond: cmp("Price", GT, 2000)}, nil,
			"lots (Make, Year, Price): ford 1994 3000; ford 1995 9000; ford 1994 7000; ford 1995 8000"},
		{"π over an all-pass σ", &Project{Input: &Select{Input: ford("lots"), Cond: cmp("Year", GE, 1994)}, Attrs: []string{"Make", "Year"}}, nil,
			"(Make, Year): ford 1994; ford 1995; ford 1996"},
		{"union", UnionAll(ford("lots"), ford("lots2"), &Select{Input: ford("lots"), Cond: cmp("Price", LT, 5000)}), nil,
			"(Make, Year, Price): ford 1994 3000; ford 1995 9000; ford 1994 7000; ford 1996 1000; ford 1995 8000; ford 1997 4000"},
		{"fed join", fedJoin, nil,
			"(Make, Year, Price, BBPrice): ford 1994 3000 3500; ford 1995 9000 8500; ford 1994 7000 3500; ford 1996 1000 1200; ford 1995 8000 8500"},
		// 1994 has a doomed row and a live one, so it is fed; 1996's only
		// row is doomed, so it is pruned.
		{"pruned fed join", fedJoin, []prune.Cond{{Attr: "Price", Op: prune.GT, Val: relation.Int(5000)}},
			"(Make, Year, Price, BBPrice): ford 1994 3000 3500; ford 1995 9000 8500; ford 1994 7000 3500; ford 1995 8000 8500"},
	}
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprint("workers=", workers), func(t *testing.T) {
			cat := lotsCatalog()
			stored := map[string]string{}
			for _, name := range []string{"lots", "lots2", "book"} {
				stored[name] = cat.rels[name].data.String()
			}
			ctx := WithPool(context.Background(), NewPool(workers))
			for _, c := range cases {
				cctx := ctx
				if c.prune != nil {
					cctx = prune.ContextWith(ctx, prune.NewState(c.prune, 0))
				}
				got, err := Eval(cctx, c.expr, cat, nil)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				if brief(got) != c.want {
					t.Errorf("%s answered\n%s\nwant\n%s", c.name, brief(got), c.want)
				}
			}

			allPass := &Select{Input: ford("lots"), Cond: cmp("Year", GT, 1990)}
			got, err := Eval(ctx, allPass, cat, nil)
			if err != nil {
				t.Fatal(err)
			}
			cat.mu.Lock()
			scanned := cat.returned[len(cat.returned)-1]
			cat.mu.Unlock()
			if got != scanned {
				t.Errorf("%s answered a relation of its own, want the scan's", allPass)
			}

			for name, was := range stored {
				if now := cat.rels[name].data.String(); now != was {
					t.Errorf("stored relation %s now reads\n%s\nwant\n%s", name, now, was)
				}
			}
		})
	}
}

// brief renders a relation on one line: its name, its schema and its rows.
func brief(r *relation.Relation) string {
	rows := make([]string, r.Len())
	for i, t := range r.Tuples() {
		vals := make([]string, len(t))
		for k, v := range t {
			vals[k] = v.String()
		}
		rows[i] = strings.Join(vals, " ")
	}
	return strings.TrimSpace(r.Name()+" "+r.Schema().String()) + ": " + strings.Join(rows, "; ")
}
