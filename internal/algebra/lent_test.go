package algebra

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"webbase/internal/relation"
)

// The bindings an evaluation frame builds, a σ's pushed-down constant and
// a fed combination's inputs, are lent by bindingMaps and taken back when
// the Eval they were handed to returns.

// keepingCatalog keeps every inputs map it is handed, which no catalog may
// do, and what each one held when Populate read it.
type keepingCatalog struct {
	*MemCatalog
	mu   sync.Mutex
	kept []map[string]relation.Value
	seen []string // "relation inputs", as Populate read them
}

func (c *keepingCatalog) Populate(ctx context.Context, name string, inputs map[string]relation.Value) (*relation.Relation, error) {
	c.mu.Lock()
	c.kept = append(c.kept, inputs)
	c.seen = append(c.seen, fmt.Sprint(name, " ", inputs))
	c.mu.Unlock()
	return c.MemCatalog.Populate(ctx, name, inputs)
}

// sortedSeen returns what the catalog read, in name order: the fed
// combinations populate concurrently under a pool.
func (c *keepingCatalog) sortedSeen() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := slices.Clone(c.seen)
	slices.Sort(seen)
	return seen
}

// twoMakesCatalog holds ford ads of 1990–1993 and chevy ads of 2000–2003,
// and the blue book of both: ads need a Make, the book a Make and a Year.
func twoMakesCatalog() *keepingCatalog {
	cat := NewMemCatalog()
	ads := relation.New("ads", relation.NewSchema("Make", "Year"))
	book := relation.New("book", relation.NewSchema("Make", "Year", "BBPrice"))
	for _, m := range []struct {
		make string
		from int64
	}{{"ford", 1990}, {"chevy", 2000}} {
		for y := m.from; y < m.from+4; y++ {
			ads.MustInsert(relation.String(m.make), relation.Int(y))
			book.MustInsert(relation.String(m.make), relation.Int(y), relation.Int(1000+y))
		}
	}
	cat.Add(ads, relation.NewAttrSet("Make"))
	cat.Add(book, relation.NewAttrSet("Make", "Year"))
	return &keepingCatalog{MemCatalog: cat}
}

// TestLentBindingsEndWithTheirEval: σ[Make](ads) ⋈ book lends the σ's
// bindings to the ads scan and each fed combination's to a book scan. When
// Eval returns none is lent, and a second Eval for another make is lent the
// same maps and fills them with its own values; the first answer, and what
// the first catalog read at call time, stay as they were.
func TestLentBindingsEndWithTheirEval(t *testing.T) {
	query := func(mk string) Expr {
		return &Join{Left: &Select{Input: scan("ads"), Cond: eqCond("Make", mk)}, Right: scan("book")}
	}
	// read is what a catalog reads for one make's query.
	read := func(mk string, from int64) []string {
		want := []string{fmt.Sprintf("ads map[Make:%s]", mk)}
		for y := from; y < from+4; y++ {
			want = append(want, fmt.Sprintf("book map[Make:%s Year:%d]", mk, y))
		}
		return want
	}
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprint("workers=", workers), func(t *testing.T) {
			ctx := WithPool(context.Background(), NewPool(workers))
			first := twoMakesCatalog()
			got, err := Eval(ctx, query("ford"), first, nil)
			if err != nil {
				t.Fatal(err)
			}
			answer := got.String()
			if got.Len() != 4 {
				t.Fatalf("the ford query answered %d tuples, want 4:\n%s", got.Len(), answer)
			}
			if _, lent := bindingMaps.Idle(); lent != 0 {
				t.Fatalf("%d bindings maps still lent after Eval returned", lent)
			}
			seen := first.sortedSeen()
			if want := read("ford", 1990); !slices.Equal(seen, want) {
				t.Fatalf("the catalog read %q, want %q", seen, want)
			}

			second := twoMakesCatalog()
			again, err := Eval(ctx, query("chevy"), second, nil)
			if err != nil {
				t.Fatal(err)
			}
			if again.Len() != 4 || again.String() == answer {
				t.Fatalf("the chevy query answered:\n%s", again)
			}
			if _, lent := bindingMaps.Idle(); lent != 0 {
				t.Fatalf("%d bindings maps still lent after the second Eval returned", lent)
			}
			pointer := func(m map[string]relation.Value) uintptr { return reflect.ValueOf(m).Pointer() }
			if !slices.ContainsFunc(second.kept, func(m map[string]relation.Value) bool {
				return slices.ContainsFunc(first.kept, func(k map[string]relation.Value) bool { return pointer(k) == pointer(m) })
			}) {
				t.Fatal("the second Eval was lent no map the first had been")
			}
			if got.String() != answer {
				t.Errorf("the first answer now reads\n%s\nwant\n%s", got, answer)
			}
			if now := first.sortedSeen(); !slices.Equal(now, seen) {
				t.Errorf("the first catalog's reads now %q, want %q", now, seen)
			}
			if want := read("chevy", 2000); !slices.Equal(second.sortedSeen(), want) {
				t.Errorf("the second catalog read %q, want %q", second.sortedSeen(), want)
			}
		})
	}
}
