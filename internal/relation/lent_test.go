package relation

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// lentTables reports the tables lent, and fails when an idle one holds
// more than keptSlots slots or ints, or more than keptTables wait.
func lentTables(t *testing.T) int {
	t.Helper()
	idle, lent := tables.Idle()
	if len(idle) > keptTables {
		t.Errorf("%d idle tables, want at most %d", len(idle), keptTables)
	}
	for _, tab := range idle {
		if cap(tab.slots) > keptSlots || cap(tab.ints) > keptSlots {
			t.Errorf("an idle table keeps %d slots and %d ints, want at most %d each", cap(tab.slots), cap(tab.ints), keptSlots)
		}
	}
	return lent
}

// TestLentTablesEndWithTheirOperator: Project, NaturalJoin, Diff and
// UnionAll borrow their table and return it before they return, an error
// included, and a large operand's table is not kept idle. Combos holds its
// table until Release, and an operator that runs meanwhile is lent one of
// its own: the positions still read the same after it.
func TestLentTablesEndWithTheirOperator(t *testing.T) {
	r, perm, other := opsInputs(600) // tables of 2 048 slots
	ops := []struct {
		name    string
		run     func() (*Relation, error)
		wantErr bool
	}{
		{"Project", func() (*Relation, error) { return r.Project("A", "B") }, false},
		{"NaturalJoin", func() (*Relation, error) { return r.NaturalJoin(other), nil }, false},
		{"Diff", func() (*Relation, error) { return r.Diff(perm) }, false},
		{"UnionAll", func() (*Relation, error) { return UnionAll([]*Relation{r, nil, perm}) }, false},
		{"UnionAll of unlike schemas", func() (*Relation, error) { return UnionAll([]*Relation{r, other}) }, true},
	}
	for _, op := range ops {
		if _, err := op.run(); (err != nil) != op.wantErr {
			t.Fatalf("%s: error %v, want one: %v", op.name, err, op.wantErr)
		}
		if lent := lentTables(t); lent != 0 {
			t.Errorf("%s returned with %d tables lent", op.name, lent)
		}
	}

	small, _, smallOther := opsInputs(16)
	combos := small.Combos([]int{1})
	first, of := slices.Clone(combos.First), slices.Clone(combos.Of)
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7}; !slices.Equal(first, want) {
		t.Fatalf("the combinations of B start at rows %v, want %v", first, want)
	}
	for _, op := range ops {
		op.run()
	}
	join := small.NaturalJoin(smallOther)
	if lent := lentTables(t); lent != 1 {
		t.Errorf("%d tables lent while Combos holds one, want 1", lent)
	}
	if !slices.Equal(combos.First, first) || !slices.Equal(combos.Of, of) {
		t.Errorf("the combinations read %v %v after other operators ran, want %v %v", combos.First, combos.Of, first, of)
	}
	if join.Len() != small.Len() {
		t.Errorf("the join beside Combos has %d tuples, want %d", join.Len(), small.Len())
	}
	combos.Release()
	if lent := lentTables(t); lent != 0 {
		t.Errorf("%d tables lent after Release", lent)
	}
}

// TestLentTablesToConcurrentOperators: operators running at once on
// several goroutines answer as they do alone. A table lent to two of them
// would mix their slots, which the race detector reports.
func TestLentTablesToConcurrentOperators(t *testing.T) {
	r, perm, other := opsInputs(32)
	run := func() string {
		p, err := r.Project("B", "A")
		if err != nil {
			t.Error(err)
		}
		u, err := UnionAll([]*Relation{perm, r})
		if err != nil {
			t.Error(err)
		}
		d, err := u.Diff(r)
		if err != nil {
			t.Error(err)
		}
		c := r.Combos([]int{0})
		defer c.Release()
		return fmt.Sprint(p, r.NaturalJoin(other), u, d, c.First, c.Of)
	}
	want := run()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if got := run(); got != want {
					t.Errorf("operators running at once answered\n%s\nwant\n%s", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if lent := lentTables(t); lent != 0 {
		t.Errorf("%d tables lent after every operator returned", lent)
	}
}
