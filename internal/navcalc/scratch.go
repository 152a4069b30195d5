package navcalc

import (
	"webbase/internal/htmlkit"
	"webbase/internal/lend"
	"webbase/internal/tlogic"
	"webbase/internal/web"
)

// What a returned scratch keeps for the next execution. An idle scratch
// is live heap, so what it keeps is sized.
const (
	// keptScratches is how many idle scratches wait for the next
	// executions: as many as ran at once, up to this many.
	keptScratches = 8
	// slabChunk is how many states or pages a slab carves per allocation.
	slabChunk = 4
	// keptStates is how many states a returned scratch keeps, and
	// keptArrays how many page slots keep their parse arrays (the rest of
	// their chunk keeps none): an execution that went further gives the
	// rest back to the collector. Most executions stand on one page.
	keptStates = 4 * slabChunk
	keptArrays = 2
	// keptArray is the largest node or attribute array, and decode buffer
	// in bytes, a page slot keeps.
	keptArray = 600
	// keptKey is the largest key buffer, in bytes, a scratch keeps.
	keptKey = 1024
)

// scratch is what one execution (Expression.Execute) borrows and
// nothing outlives: its page budget, its states with the request each
// loads, the buffer each request's key is encoded into, the search's
// stacks of those states, and the pages that only it visits, with their
// parse arrays. Backtracking discards a branch by dropping its states, so
// every state and lent page of an execution lives exactly as long as the
// execution does; the scratch is reset and kept idle for the next
// execution when it ends. What an execution hands on is never lent: its
// request keys (web.Query.Key), its pages' text, its collected tuples, and
// every page another execution may read — a page its query keeps
// (web.Query.Load), and the page of an input-free request
// (web.Response.Derived).
type scratch struct {
	budget pageBudget
	key    []byte        // the key of the request being built (web.AppendKey)
	stacks tlogic.Stacks // the search's path and outcome stacks
	states slab[BrowseState]
	pages  slab[lentPage]
}

// lentPage is a page slot: the page and the arrays its document is parsed
// into.
type lentPage struct {
	page
	arrays htmlkit.Arrays
}

// scratches lends each execution its scratch. Every returned scratch is
// kept, up to keptScratches: reset gives what is over its sizes back to the
// collector.
var scratches = lend.Stack[scratch]{Max: keptScratches, Reset: (*scratch).reset}

// reset readies s for the next execution: no state or lent page of the
// execution that returned it may be read after it.
func (s *scratch) reset() bool {
	s.budget = pageBudget{}
	s.key = lend.Fit(s.key, keptKey)
	s.stacks = tlogic.Stacks{}
	s.states.reset(keptStates, func(_ int, st *BrowseState) { *st = BrowseState{} })
	s.pages.reset(keptArrays, func(i int, p *lentPage) {
		p.page = page{}
		if i < keptArrays {
			p.arrays.Reset(keptArray)
		} else {
			p.arrays.Reset(0)
		}
	})
	return true
}

// lend parses resp into a page slot of s: a page only this execution reads.
func (s *scratch) lend(resp *web.Response) *page {
	p := s.pages.next()
	p.page = page{url: resp.URL, bytes: int64(len(resp.Body)), doc: htmlkit.ParseInto(resp.Body, &p.arrays)}
	return &p.page
}

// slab hands out values of T carved from chunks it keeps across resets.
type slab[T any] struct {
	chunks []*[slabChunk]T
	n      int // values handed out since the last reset
}

// next returns the next value, as the last reset left it: zero but for
// what its zero keeps.
func (s *slab[T]) next() *T {
	c, i := s.n/slabChunk, s.n%slabChunk
	if c == len(s.chunks) {
		s.chunks = append(s.chunks, new([slabChunk]T))
	}
	s.n++
	return &s.chunks[c][i]
}

// reset takes every value back, calling zero with the index of each one
// handed out, and keeps the chunks of the first keep values.
func (s *slab[T]) reset(keep int, zero func(int, *T)) {
	for i := 0; i < s.n; i++ {
		zero(i, &s.chunks[i/slabChunk][i%slabChunk])
	}
	s.n = 0
	if c := (keep + slabChunk - 1) / slabChunk; len(s.chunks) > c {
		clear(s.chunks[c:])
		s.chunks = s.chunks[:c]
	}
}
