package vps

import (
	"context"
	"testing"

	"webbase/internal/race"
	"webbase/internal/relation"
	"webbase/internal/sites"
	"webbase/internal/web"
)

// TestPopulateAllocs is the allocation ceiling of one warm handle
// invocation with two inputs — newsday's Make and Model, through its form
// to the data pages — about 10% above what the code does. Every page is
// served from memory, so the count is what the invocation itself
// allocates: its requests' keys (outside a query no cache lends them), the
// text of each page, and the relation its rows are copied into once. Its
// states with their requests, the search's stacks, the buffer its rows are
// collected in, and the pages and parse arrays only it reads, are
// borrowed from a pooled scratch, and the string inputs it hands Execute
// are lent too. The bindings it is handed and the extraction's set-up are
// not copied.
func TestPopulateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	w := sites.BuildWorld()
	reg, err := StandardRegistry()
	if err != nil {
		t.Fatal(err)
	}
	pages := map[string]*web.Response{}
	warm := web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		key := req.Key()
		if resp, ok := pages[key]; ok {
			return resp, nil
		}
		resp, err := w.Server.Fetch(req)
		if err == nil {
			pages[key] = resp
		}
		return resp, err
	})
	inputs := map[string]relation.Value{"Make": v("ford"), "Model": v("escort")}
	tuples := 0
	populate := func() {
		rel, _, err := reg.Populate(context.Background(), warm, "newsday", inputs)
		if err != nil {
			t.Fatal(err)
		}
		tuples = rel.Len()
	}
	populate() // fill the pages

	const ceiling = 14 // 13 when set; 17 while each extracting page made its own slab of values and its state's list of tuples; 31 while the page slots past the second gave their parse arrays back at each reset and each page's scan made its links, forms and fields, and each parse its decode buffer; 34 while each invocation made the string inputs it hands Execute, and the execution its search's stacks; 42 while each visit allocated its request and every invocation selected a relation of its own; 63 while every state, page and parse array of an execution was its own allocation; 93 while each data page's table was copied into rows of strings, with a map of every resolved link per row, before extraction read it; 129 while a submission built a url.Values and its encoding, the request was copied to carry its context, each step returned a slice of its outcomes and the execution its report on the heap; 153 while the scan resolved every link on a page; 202 while the bindings, the path and the extraction set-up were copied at every step
	got := testing.AllocsPerRun(50, populate)
	t.Logf("a warm newsday invocation of %d tuples over %d pages: %.0f allocations (ceiling %d)", tuples, len(pages), got, ceiling)
	if tuples == 0 {
		t.Fatal("no tuples")
	}
	if got > ceiling {
		t.Errorf("a warm handle invocation allocates %.0f times, ceiling %d", got, ceiling)
	}
}
