// Package lend keeps the values a program lends to one user at a time and
// takes back when that user ends: a parse's buffers (htmlkit),
// navigation's scratches (navcalc), the bindings of an evaluation frame
// (algebra) and of a handle invocation (vps), a relational operator's
// table (relation), a served stream's codec (internal/server) and a
// client stream's readers (client). A value is borrowed, used by its
// borrower alone, and returned exactly once; a returned value waits idle
// for the next borrower.
//
// A Stack is not a sync.Pool: under the race detector a pool drops a
// quarter of what it is given at random, so the allocations of two equal
// runs would no longer repeat, and a pool keeps no bound a test can read.
package lend

import (
	"slices"
	"sync"

	"webbase/internal/race"
)

// Stack holds the values no borrower is using, the last returned on top.
// An idle value is live heap, so what a Stack keeps is bounded: by Max in
// number and by Reset in what each keeps. Configure the exported fields
// before the first Borrow; a Stack must not be copied after it.
type Stack[T any] struct {
	// Max is the most values kept idle; a value returned beyond it goes
	// to the collector. 0 keeps any number.
	Max int
	// Reset readies a returned value for its next borrower and reports
	// whether to keep it. nil keeps every value as it was returned.
	Reset func(*T) bool
	// WhileLent keeps idle values only while another value is lent: the
	// last Return drops every idle value and the list that held them.
	WhileLent bool

	newT func() *T // makes a value when none is idle; nil makes new(T)

	mu   sync.Mutex
	idle []*T
	lent int // values borrowed and not yet returned
}

// Borrow returns the value returned last, or a new one when none is idle.
func (s *Stack[T]) Borrow() *T {
	s.mu.Lock()
	s.lent++
	n := len(s.idle)
	if n == 0 {
		s.mu.Unlock()
		if s.newT != nil {
			return s.newT()
		}
		return new(T)
	}
	v := s.idle[n-1]
	s.idle[n-1] = nil
	s.idle = s.idle[:n-1]
	s.mu.Unlock()
	return v
}

// Return takes v back; its borrower must not use it after. In a race
// build it panics on a value already idle or on more returns than
// borrows: a value returned twice.
func (s *Stack[T]) Return(v *T) {
	keep := s.Reset == nil || s.Reset(v)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lent--
	if race.Enabled && (s.lent < 0 || slices.Contains(s.idle, v)) {
		panic("lend: a value returned twice")
	}
	switch {
	case s.WhileLent && s.lent == 0:
		s.idle = nil
	case keep && (s.Max == 0 || len(s.idle) < s.Max):
		s.idle = append(s.idle, v)
	}
}

// Idle returns a copy of the idle values, the last returned last (nil
// when the Stack holds no list), and the number of values lent.
func (s *Stack[T]) Idle() (idle []*T, lent int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.idle), s.lent
}

// Fit returns b emptied for reuse, or nil when its capacity is over limit
// elements: a lent buffer that grew past its bound goes to the collector.
func Fit[E any](b []E, limit int) []E {
	if cap(b) > limit {
		return nil
	}
	return b[:0]
}

// keptMapLen is the most entries a lent map may have held to be kept: one
// group of Go's map, which clear empties in place. A map that grew past it
// keeps its larger tables through clear.
const keptMapLen = 8

// Maps returns a Stack of maps that lends each borrower an empty map and
// keeps, up to max, the returned maps that held at most keptMapLen entries.
func Maps[K comparable, V any](max int) *Stack[map[K]V] {
	return &Stack[map[K]V]{Max: max, Reset: clearMap[K, V], newT: newMap[K, V]}
}

func newMap[K comparable, V any]() *map[K]V {
	m := make(map[K]V)
	return &m
}

func clearMap[K comparable, V any](m *map[K]V) bool {
	keep := len(*m) <= keptMapLen
	clear(*m)
	return keep
}
