package navcalc

import (
	"context"

	"webbase/internal/htmlkit"
	"webbase/internal/lend"
	"webbase/internal/relation"
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
	// keptPages how many page slots, each with its parse arrays and its
	// scan: an execution that went further gives the rest back to the
	// collector. Most executions stand on one page; nearly all on at most
	// eight.
	keptStates = 4 * slabChunk
	keptPages  = 2 * slabChunk
	// keptArray is the largest node or attribute array, and the largest
	// scan buffer (links, forms, a form's fields, a field's domain), a
	// page slot keeps.
	keptArray = 600
	// keptKey is the largest key buffer, in bytes, a scratch keeps.
	keptKey = 1024
	// keptRows is the largest row buffer, in values, a scratch keeps.
	keptRows = 1024
)

// scratch is what one execution (Expression.Execute) borrows and
// nothing outlives: its page budget, its states with the request each
// loads, the buffer each request's key is encoded into, the search's
// stacks of those states, the rows its extractions collect with the chunks
// that chain them, and the pages that only it visits, with their parse
// arrays and their scans. Backtracking discards a branch by dropping its
// states, so every state, chunk and lent page of an execution lives
// exactly as long as the execution does; the scratch is reset and kept
// idle for the next execution when it ends. What an execution hands on is
// never lent: its request keys (web.Query.Key), its pages' text, the
// relation its end state's rows are copied into, and every page another
// execution may read — a page its query keeps (web.Query.Load), and the
// page of an input-free request (web.Response.Derived).
type scratch struct {
	// What every state of the execution reads.
	ctx     context.Context
	fetcher web.Fetcher
	query   *web.Query // the query navigating, nil outside one; keeps the pages it reads twice
	schema  relation.Schema

	budget pageBudget
	key    []byte           // the key of the request being built (web.AppendKey)
	stacks tlogic.Stacks    // the search's path and outcome stacks
	rows   []relation.Value // the values of every row collected, each chunk's in turn
	chunks slab[chunk]
	states slab[BrowseState]
	pages  slab[lentPage]
}

// lentPage is a page slot: the page, whose scan keeps its buffers from one
// page to the next, and the arrays its document is parsed into.
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
	s.ctx, s.fetcher, s.query, s.schema = nil, nil, nil, nil
	s.budget = pageBudget{}
	s.key = lend.Fit(s.key, keptKey)
	s.stacks = tlogic.Stacks{}
	clear(s.rows) // an idle scratch holds no page's strings
	s.rows = lend.Fit(s.rows, keptRows)
	s.chunks.reset(keptStates, func(_ int, c *chunk) { *c = chunk{} })
	s.states.reset(keptStates, func(_ int, st *BrowseState) { *st = BrowseState{} })
	s.pages.reset(keptPages, func(_ int, p *lentPage) {
		scan := p.scan
		scan.Reset(keptArray)
		p.page = page{scan: scan}
		p.arrays.Reset(keptArray)
	})
	return true
}

// lend parses resp into a page slot of s: a page only this execution reads.
func (s *scratch) lend(resp *web.Response) *page {
	p := s.pages.next()
	p.url, p.bytes, p.doc = resp.URL, int64(len(resp.Body)), htmlkit.ParseInto(resp.Body, &p.arrays)
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
