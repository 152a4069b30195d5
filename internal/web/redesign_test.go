package web

import (
	"context"
	"strings"
	"testing"

	"webbase/internal/htmlkit"
)

// TestRedesignRewritesOnlyWhenActive: before Activate the double is
// transparent; after, it rewrites the configured host's pages — a pure
// function of the response, so results are schedule-independent.
func TestRedesignRewritesOnlyWhenActive(t *testing.T) {
	inner := FetcherFunc(func(req *Request) (*Response, error) {
		return HTML(req.URL, `<html><a href="/auto">Automobiles</a></html>`), nil
	})
	rd := &Redesign{
		Inner: inner,
		Rewrites: map[string][]Rewrite{
			"a.example": {{Old: ">Automobiles<", New: ">Cars and Trucks<"}},
		},
	}
	resp, err := rd.Fetch(NewGet(context.Background(), "http://a.example/"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(resp.Body), "Automobiles") {
		t.Fatal("inactive redesign already rewrote the page")
	}

	rd.Activate()
	if !rd.Active() {
		t.Fatal("Active() false after Activate")
	}
	resp, err = rd.Fetch(NewGet(context.Background(), "http://a.example/"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(resp.Body), "Cars and Trucks") || strings.Contains(string(resp.Body), "Automobiles") {
		t.Fatalf("active redesign did not rewrite: %s", resp.Body)
	}
}

// TestRedesignLeavesOtherHostsAlone: rewrites are scoped to their host.
func TestRedesignLeavesOtherHostsAlone(t *testing.T) {
	inner := FetcherFunc(func(req *Request) (*Response, error) {
		return HTML(req.URL, `<html>Automobiles</html>`), nil
	})
	rd := &Redesign{
		Inner:    inner,
		Rewrites: map[string][]Rewrite{"a.example": {{Old: "Automobiles", New: "Cars"}}},
	}
	rd.Activate()
	resp, err := rd.Fetch(NewGet(context.Background(), "http://b.example/"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(resp.Body), "Automobiles") {
		t.Fatalf("redesign leaked onto another host: %s", resp.Body)
	}
}

// TestRedesignedPageParsedFromNewBytes: a response whose parsed page is
// already built (Response.Derived), passed through an active redesign,
// yields a response whose page is parsed from the rewritten bytes. A
// by-value copy of the original would carry the original's page.
func TestRedesignedPageParsedFromNewBytes(t *testing.T) {
	orig := HTML("http://a.example/", `<html><a href="/auto">Automobiles</a></html>`)
	links := func(r *Response) []htmlkit.Link {
		doc := r.Derived(func() any { return htmlkit.Parse(r.Body) }).(*htmlkit.Node)
		return htmlkit.Scan(doc, r.URL).Links
	}
	if got := links(orig); len(got) != 1 || got[0].Name != "Automobiles" {
		t.Fatalf("original page links %v", got)
	}
	rd := &Redesign{
		Inner:    FetcherFunc(func(*Request) (*Response, error) { return orig, nil }),
		Rewrites: map[string][]Rewrite{"a.example": {{Old: ">Automobiles<", New: ">Cars and Trucks<"}}},
	}
	rd.Activate()
	resp, err := rd.Fetch(NewGet(context.Background(), "http://a.example/"))
	if err != nil {
		t.Fatal(err)
	}
	if got := links(resp); len(got) != 1 || got[0].Name != "Cars and Trucks" {
		t.Errorf("redesigned page links %v, want the one named Cars and Trucks", got)
	}
	if resp.Status != orig.Status || resp.URL != orig.URL {
		t.Errorf("redesigned response is %d %s, want %d %s", resp.Status, resp.URL, orig.Status, orig.URL)
	}
}
