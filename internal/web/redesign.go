package web

import (
	"net/url"
	"strings"
	"sync/atomic"
)

// Rewrite is one textual substitution a Redesign applies to a page body.
type Rewrite struct {
	Old string
	New string
}

// Redesign is the site-drift test double, the structural sibling of Flaky:
// where Flaky makes fetches fail, Redesign makes them succeed with changed
// pages. Once activated, it rewrites the response bodies of the listed
// hosts — renaming a link, a form or a table header — so that the site
// stays perfectly healthy at the HTTP level while its pages silently stop
// matching the navigation map. The rewriting is a pure function of the
// response, so outcomes are independent of goroutine scheduling.
type Redesign struct {
	Inner Fetcher
	// Rewrites maps a host to the substitutions applied, in order, to
	// every successful response body served from that host.
	Rewrites map[string][]Rewrite

	active atomic.Bool
}

// Activate makes the redesign visible: subsequent fetches see the
// rewritten pages. It may be called at most once, at a quiescent point, so
// that tests remain schedule-independent.
func (r *Redesign) Activate() { r.active.Store(true) }

// Active reports whether the redesign has been activated.
func (r *Redesign) Active() bool { return r.active.Load() }

// Fetch implements Fetcher.
func (r *Redesign) Fetch(req *Request) (*Response, error) {
	resp, err := r.Inner.Fetch(req)
	if err != nil || resp == nil || !r.active.Load() {
		return resp, err
	}
	u, perr := url.Parse(resp.URL)
	if perr != nil {
		return resp, err
	}
	rws, ok := r.Rewrites[u.Host]
	if !ok {
		return resp, err
	}
	body := string(resp.Body)
	for _, rw := range rws {
		body = strings.ReplaceAll(body, rw.Old, rw.New)
	}
	// A Response of its own, not a copy: a copy would carry the value
	// derived from the original bytes (Response.Derived).
	return &Response{Status: resp.Status, URL: resp.URL, Body: []byte(body)}, err
}
