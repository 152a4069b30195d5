package lend

import (
	"slices"
	"sync"
	"testing"

	"webbase/internal/race"
)

// buf is a lent value: a buffer its borrower grows.
type buf struct{ b []byte }

// borrowN borrows n values of s.
func borrowN(s *Stack[buf], n int) []*buf {
	vs := make([]*buf, n)
	for i := range vs {
		vs[i] = s.Borrow()
	}
	return vs
}

// wantIdle fails t unless s keeps exactly want idle, in order, with lent
// values out.
func wantIdle(t *testing.T, s *Stack[buf], want []*buf, lent int) {
	t.Helper()
	idle, n := s.Idle()
	if !slices.Equal(idle, want) || n != lent {
		t.Fatalf("%d idle (%p) and %d lent, want %d (%p) and %d", len(idle), idle, n, len(want), want, lent)
	}
}

// TestLendBound: values returned beyond Max go to the collector, and the
// last returned is the next borrowed.
func TestLendBound(t *testing.T) {
	s := &Stack[buf]{Max: 3}
	vs := borrowN(s, 5)
	wantIdle(t, s, nil, 5)
	for _, v := range vs {
		s.Return(v)
	}
	wantIdle(t, s, vs[:3], 0)
	if v := s.Borrow(); v != vs[2] {
		t.Fatal("a borrow was not lent the value returned last")
	}
	wantIdle(t, s, vs[:2], 1)

	unbounded := &Stack[buf]{}
	vs = borrowN(unbounded, 20)
	for _, v := range vs {
		unbounded.Return(v)
	}
	wantIdle(t, unbounded, vs, 0)
}

// TestLendResetDecides: Reset readies every returned value, and one it
// refuses goes to the collector.
func TestLendResetDecides(t *testing.T) {
	s := &Stack[buf]{Max: 4, Reset: func(v *buf) bool {
		keep := cap(v.b) <= 8
		v.b = v.b[:0]
		return keep
	}}
	small, large := s.Borrow(), s.Borrow()
	small.b = append(small.b, "eight..."...)
	large.b = append(large.b, "more than eight"...)
	s.Return(small)
	s.Return(large)
	wantIdle(t, s, []*buf{small}, 0)
	if len(small.b) != 0 || len(large.b) != 0 {
		t.Fatalf("returned values hold %q and %q, want both reset", small.b, large.b)
	}
	if v := s.Borrow(); v != small || cap(v.b) < 8 {
		t.Fatal("the kept value was not lent again with its buffer")
	}
}

// TestLendMaps: a Stack of maps lends an empty map, made when none is
// idle; a returned map is cleared, and kept only while it held at most
// keptMapLen entries.
func TestLendMaps(t *testing.T) {
	s := Maps[string, int](4)
	small, large := s.Borrow(), s.Borrow()
	if *small == nil || *large == nil || len(*small) != 0 {
		t.Fatal("a borrow was not lent an empty map")
	}
	for i := 0; i < keptMapLen; i++ {
		(*small)[string(rune('a'+i))] = i
	}
	for i := 0; i <= keptMapLen; i++ {
		(*large)[string(rune('a'+i))] = i
	}
	s.Return(small)
	s.Return(large)
	if idle, lent := s.Idle(); !slices.Equal(idle, []*map[string]int{small}) || lent != 0 {
		t.Fatalf("%d idle and %d lent, want the map of %d entries alone", len(idle), lent, keptMapLen)
	}
	if len(*small) != 0 || len(*large) != 0 {
		t.Fatalf("returned maps hold %v and %v, want both cleared", *small, *large)
	}
	if m := s.Borrow(); m != small || len(*m) != 0 {
		t.Fatal("the kept map was not lent again, empty")
	}
}

// TestLendWhileLent: a stack that keeps values only while another is lent
// keeps what is returned while a borrower is out, and the last Return
// leaves it with no idle list at all.
func TestLendWhileLent(t *testing.T) {
	s := &Stack[buf]{WhileLent: true}
	a := s.Borrow()
	s.Return(a)
	wantIdle(t, s, nil, 0)
	vs := borrowN(s, 3)
	s.Return(vs[1])
	s.Return(vs[0])
	wantIdle(t, s, []*buf{vs[1], vs[0]}, 1)
	if v := s.Borrow(); v != vs[0] {
		t.Fatal("a borrow was not lent the value returned last")
	}
	s.Return(vs[0])
	s.Return(vs[2])
	wantIdle(t, s, nil, 0)
}

// TestLendConcurrent: goroutines borrowing and returning at once are each
// lent a value no other holds (under -race, a shared one is also a race),
// and the stack ends with every value back and at most Max idle.
func TestLendConcurrent(t *testing.T) {
	const workers, rounds, bound = 8, 200, 3
	s := &Stack[buf]{Max: bound, Reset: func(v *buf) bool { v.b = v.b[:0]; return true }}
	var held sync.Map
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds {
				v := s.Borrow()
				if _, taken := held.LoadOrStore(v, w); taken {
					t.Error("a value was lent to two borrowers at once")
				}
				if len(v.b) != 0 {
					t.Errorf("a borrowed value holds %q", v.b)
				}
				v.b = append(v.b, byte(w), byte(i))
				held.Delete(v)
				s.Return(v)
			}
		}()
	}
	wg.Wait()
	if idle, lent := s.Idle(); len(idle) == 0 || len(idle) > bound || lent != 0 {
		t.Fatalf("%d idle and %d lent after every return, want 1 to %d and 0", len(idle), lent, bound)
	}
}

// TestLendReturnedTwicePanics: in a race build, returning a value already
// idle, or more values than were borrowed, panics.
func TestLendReturnedTwicePanics(t *testing.T) {
	if !race.Enabled {
		t.Skip("a value returned twice is caught in a race build only")
	}
	panics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	s := &Stack[buf]{Max: 4}
	a, b := s.Borrow(), s.Borrow()
	s.Return(a)
	panics("returning an idle value while another is lent", func() { s.Return(a) })

	s = &Stack[buf]{}
	a, b = s.Borrow(), s.Borrow()
	s.Return(a)
	s.Return(b)
	panics("a return with nothing lent", func() { s.Return(b) })

	s = &Stack[buf]{Max: 1}
	a, b = s.Borrow(), s.Borrow()
	s.Return(a)
	s.Return(b) // beyond the bound: dropped
	panics("returning a dropped value", func() { s.Return(b) })
}

// TestLendFit: a buffer at or below its limit is kept emptied, one above
// it is dropped.
func TestLendFit(t *testing.T) {
	b := make([]int32, 3, 8)
	for _, tc := range []struct {
		limit int
		kept  bool
	}{{9, true}, {8, true}, {7, false}, {0, false}} {
		got := Fit(b, tc.limit)
		if kept := got != nil; kept != tc.kept || len(got) != 0 || (kept && cap(got) != 8) {
			t.Errorf("Fit(cap 8, %d) = len %d cap %d (nil %v), want kept %v and emptied", tc.limit, len(got), cap(got), got == nil, tc.kept)
		}
	}
	if got := Fit([]byte(nil), 0); got != nil {
		t.Errorf("Fit(nil, 0) = %v, want nil", got)
	}
}
