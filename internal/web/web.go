// Package web provides the Web substrate the webbase navigates: an
// in-process simulated Web of dynamic sites, plus adapters to and from
// net/http.
//
// The paper's system retrieved pages from the live 1998 Web through the
// PiLLoW HTTP library. Here the "raw Web" is a collection of Site
// implementations served by a Server; the navigation calculus only ever
// sees the Fetcher interface, so the same code runs against the in-process
// web, an httptest server, or (through HTTPFetcher) a real network.
package web

import (
	"context"
	"fmt"
	"net/url"
	"sort"
	"strings"
	"sync"
)

// Request is a page request: following a link issues a GET with no form
// data; submitting a form issues the form's method with its fields. A
// request built by NewGet or NewSubmit carries its key, and its fields are
// not changed afterwards.
type Request struct {
	URL    string     // absolute URL
	Method string     // "GET" or "POST"; empty means GET
	Form   url.Values // submitted form fields (nil for plain navigation)

	// key is Key(), computed once by NewGet/NewSubmit; empty in a literal.
	key string

	// ctx carries the caller's context — and with it the current trace
	// span — through the middleware stack, following net/http's
	// Request.Context pattern. Set with WithContext; nil means Background.
	ctx context.Context
}

// Context returns the request's context (never nil).
func (r *Request) Context() context.Context {
	if r.ctx != nil {
		return r.ctx
	}
	return context.Background()
}

// WithContext returns a shallow copy of the request carrying ctx. The
// navigation layer attaches its per-fetch trace span this way, so the
// middlewares can annotate the span (cache hit, deduplication, retries)
// without the Fetcher interface changing.
func (r *Request) WithContext(ctx context.Context) *Request {
	r2 := *r
	r2.ctx = ctx
	return &r2
}

// NewGet returns a GET request for rawurl.
func NewGet(rawurl string) *Request {
	return keyed(&Request{URL: rawurl, Method: "GET"})
}

// NewSubmit returns a form-submission request.
func NewSubmit(action, method string, form url.Values) *Request {
	m := strings.ToUpper(method)
	if m == "" {
		m = "GET"
	}
	return keyed(&Request{URL: action, Method: m, Form: form})
}

// keyed stores r's key and points r.URL into it. The cache, singleflight,
// outage memo and the query's page set all read the key, so it is built
// once; and a URL read off a page is a substring of that page's text,
// which the fetch stack (the cache keeps a response's URL) must not keep
// alive — the key is a fresh string, so the URL stops pinning the page.
func keyed(r *Request) *Request {
	r.key = r.Key()
	at := len(r.Method) + 1 // the key is "METHOD URL?form"
	r.URL = r.key[at : at+len(r.URL)]
	return r
}

// Key returns a canonical cache key for the request: method, URL and the
// sorted form encoding.
func (r *Request) Key() string {
	if r.key != "" {
		return r.key
	}
	m := r.Method
	if m == "" {
		m = "GET"
	}
	return m + " " + r.URL + "?" + r.Form.Encode()
}

// Param returns the first value of a form parameter, merging the URL query
// string with the submitted form (form wins). This is what a CGI script of
// the era saw.
func (r *Request) Param(name string) string {
	if v := r.Form.Get(name); v != "" {
		return v
	}
	if u, err := url.Parse(r.URL); err == nil {
		return u.Query().Get(name)
	}
	return ""
}

// Response is a fetched page.
type Response struct {
	Status int    // HTTP-style status code
	URL    string // final URL (after any redirect collapsing)
	Body   []byte // page bytes, typically HTML
}

// OK reports whether the response is a success.
func (r *Response) OK() bool { return r.Status >= 200 && r.Status < 300 }

// HTML builds a 200 response with the given body.
func HTML(finalURL, body string) *Response {
	return &Response{Status: 200, URL: finalURL, Body: []byte(body)}
}

// NotFound builds a 404 response.
func NotFound(rawurl string) *Response {
	return &Response{Status: 404, URL: rawurl, Body: []byte("<html><body>404 Not Found</body></html>")}
}

// Fetcher retrieves pages. All navigation in the webbase goes through this
// interface.
type Fetcher interface {
	Fetch(req *Request) (*Response, error)
}

// FetcherFunc adapts a function to the Fetcher interface.
type FetcherFunc func(req *Request) (*Response, error)

// Fetch implements Fetcher.
func (f FetcherFunc) Fetch(req *Request) (*Response, error) { return f(req) }

// Site serves the pages of one simulated Web site.
type Site interface {
	// Host is the site's host name, e.g. "newsday.example".
	Host() string
	// Serve handles a request whose URL host equals Host().
	Serve(req *Request) (*Response, error)
}

// Server is the simulated Web: a set of sites indexed by host. It
// implements Fetcher. Server is safe for concurrent use once all sites are
// registered.
type Server struct {
	mu    sync.RWMutex
	sites map[string]Site
}

// NewServer returns an empty simulated Web.
func NewServer() *Server {
	return &Server{sites: make(map[string]Site)}
}

// Register adds a site, replacing any previous site on the same host.
func (s *Server) Register(site Site) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sites[site.Host()] = site
}

// Hosts returns the registered host names, sorted.
func (s *Server) Hosts() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	hosts := make([]string, 0, len(s.sites))
	for h := range s.sites {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	return hosts
}

// Fetch routes the request to the site owning the URL's host.
func (s *Server) Fetch(req *Request) (*Response, error) {
	u, err := url.Parse(req.URL)
	if err != nil {
		return nil, fmt.Errorf("web: bad URL %q: %w", req.URL, err)
	}
	s.mu.RLock()
	site, ok := s.sites[u.Host]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("web: no such host %q", u.Host)
	}
	return site.Serve(req)
}

// Mux dispatches requests within a site by URL path. The zero value is not
// usable; call NewMux.
type Mux struct {
	host     string
	mu       sync.RWMutex
	handlers map[string]FetcherFunc
}

// NewMux returns a Mux serving the given host.
func NewMux(host string) *Mux {
	return &Mux{host: host, handlers: make(map[string]FetcherFunc)}
}

// Host implements Site.
func (m *Mux) Host() string { return m.host }

// Handle registers a handler for an exact path ("/", "/cgi-bin/search").
func (m *Mux) Handle(path string, h FetcherFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlers[path] = h
}

// Serve implements Site: exact-path dispatch, 404 otherwise.
func (m *Mux) Serve(req *Request) (*Response, error) {
	u, err := url.Parse(req.URL)
	if err != nil {
		return nil, fmt.Errorf("web: bad URL %q: %w", req.URL, err)
	}
	path := u.Path
	if path == "" {
		path = "/"
	}
	m.mu.RLock()
	h, ok := m.handlers[path]
	m.mu.RUnlock()
	if !ok {
		return NotFound(req.URL), nil
	}
	return h(req)
}
