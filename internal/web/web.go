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
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Request is a page request: following a link issues a GET with no form
// data; submitting a form issues the form's method with its fields. A
// request is built by NewGet or NewSubmit, carrying the context it is
// fetched under and its key, and is not changed afterwards.
type Request struct {
	URL    string // absolute URL
	Method string // "GET" or "POST"; empty means GET

	// key is Key(), encoded once by NewSubmit or AppendKey; empty in a
	// literal. It is "METHOD URL?form", the form being the submitted
	// fields as url.Values.Encode writes them (empty for plain
	// navigation). The cache, singleflight, outage memo and the query's
	// page set all keep it. URL points into it: a URL read off a page is a
	// substring of that page's text, which the fetch stack (the cache
	// keeps a response's URL) must not keep alive, and the key is a string
	// of its own: a fresh one, or the one the cache already keeps
	// (Query.Key).
	key string

	// ctx carries the caller's context — and with it the current trace
	// span — through the middleware stack, following net/http's
	// Request.Context pattern. nil means Background.
	ctx context.Context
}

// Field is one submitted form field.
type Field struct{ Name, Value string }

// Context returns the request's context (never nil).
func (r *Request) Context() context.Context {
	if r.ctx != nil {
		return r.ctx
	}
	return context.Background()
}

// NewGet returns a GET request for rawurl, fetched under ctx. The
// navigation layer passes a context carrying its per-fetch trace span, so
// the middlewares can annotate the span (cache hit, deduplication,
// retries) without the Fetcher interface changing.
func NewGet(ctx context.Context, rawurl string) *Request {
	return NewSubmit(ctx, rawurl, "GET", nil)
}

// NewSubmit returns the submission of fields to action with method, fetched
// under ctx; with no fields and method GET it is NewGet's request. A name
// given twice takes its last value, as url.Values.Set does. NewSubmit
// sorts fields by name, in place, and keeps none of them: the request
// holds its fields only as its key's encoded form.
func NewSubmit(ctx context.Context, action, method string, fields []Field) *Request {
	m := canonicalMethod(method)
	sortFields(fields)
	n := len(m) + 1 + len(action) + 1 // "METHOD URL?"
	for i, f := range fields {
		if !superseded(fields, i) {
			n += escapedLen(f.Name) + 1 + escapedLen(f.Value) + 1 // "name=value&"
		}
	}
	var sb strings.Builder
	sb.Grow(n) // a byte to spare when there are fields: the last has no '&'
	encodeKey(func(s string) { sb.WriteString(s) }, m, action, fields)
	r := keyedRequest(ctx, m, sb.String())
	return &r
}

// AppendKey appends to dst the key NewSubmit gives the submission of fields
// to action with method, sorting fields in place as NewSubmit does. It is
// how a caller that lends a buffer builds a key without allocating one:
// Query.Key turns the bytes into the key string, and KeyedRequest that
// into the request.
func AppendKey(dst []byte, action, method string, fields []Field) []byte {
	sortFields(fields)
	encodeKey(func(s string) { dst = append(dst, s...) }, canonicalMethod(method), action, fields)
	return dst
}

// KeyedRequest returns the request, as a value, whose key AppendKey wrote
// for method: its URL is a substring of key, and it is fetched under ctx.
// key must be a string of the caller's own, never a view of a buffer it
// reuses: the fetch stack keeps it (DESIGN.md §6).
func KeyedRequest(ctx context.Context, method, key string) Request {
	return keyedRequest(ctx, canonicalMethod(method), key)
}

// keyedRequest is KeyedRequest for a method already canonical. The form
// escapes every '?', so the key's last one ends its URL.
func keyedRequest(ctx context.Context, m, key string) Request {
	return Request{URL: key[len(m)+1 : strings.LastIndexByte(key, '?')], Method: m, key: key, ctx: ctx}
}

// sortFields sorts fields by name. A stable sort keeps each name's fields
// in the order given, so the last of a run of equal names is the one a Set
// would have kept.
func sortFields(fields []Field) {
	slices.SortStableFunc(fields, func(a, b Field) int { return strings.Compare(a.Name, b.Name) })
}

// encodeKey hands emit, piece by piece, the key of the submission of the
// sorted fields to action with the canonical method m: "METHOD URL?form",
// the form as url.Values.Encode writes it. NewSubmit and AppendKey both
// encode with it, so their keys are byte-identical. It writes through a
// function, not an interface: NewSubmit's strings.Builder, reached by a
// closure that does not escape, stays off the heap.
func encodeKey(emit func(string), m, action string, fields []Field) {
	emit(m)
	emit(" ")
	emit(action)
	emit("?")
	sep := ""
	for i, f := range fields {
		if superseded(fields, i) {
			continue
		}
		emit(sep)
		sep = "&"
		emitEscaped(emit, f.Name)
		emit("=")
		emitEscaped(emit, f.Value)
	}
}

// FieldValue returns the value a submission of fields sends for name: the
// last field so named gives it, and "" when none is.
func FieldValue(fields []Field, name string) string {
	for i := len(fields) - 1; i >= 0; i-- {
		if fields[i].Name == name {
			return fields[i].Value
		}
	}
	return ""
}

// canonicalMethod is strings.ToUpper(method), "" meaning GET, without
// allocating for the two methods forms use.
func canonicalMethod(method string) string {
	switch method {
	case "", "get", "GET":
		return "GET"
	case "post", "POST":
		return "POST"
	}
	return strings.ToUpper(method)
}

// superseded reports whether a later field of the sorted fields has the
// same name as fields[i].
func superseded(fields []Field, i int) bool {
	return i+1 < len(fields) && fields[i+1].Name == fields[i].Name
}

// escapedLen is len(url.QueryEscape(s)).
func escapedLen(s string) int {
	n := len(s)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c != ' ' && shouldEscape(c) {
			n += 2
		}
	}
	return n
}

// emitEscaped hands emit url.QueryEscape(s): each run that needs no
// escape as it stands in s, and each escape on its own.
func emitEscaped(emit func(string), s string) {
	const upperhex = "0123456789ABCDEF"
	from := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !shouldEscape(c) {
			continue
		}
		emit(s[from:i])
		from = i + 1
		if c == ' ' {
			emit("+")
			continue
		}
		emit("%")
		emit(upperhex[c>>4 : c>>4+1])
		emit(upperhex[c&15 : c&15+1])
	}
	emit(s[from:])
}

// shouldEscape reports whether url.QueryEscape escapes c: everything but
// RFC 3986's unreserved characters.
func shouldEscape(c byte) bool {
	switch {
	case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		return false
	case c == '-', c == '_', c == '.', c == '~':
		return false
	}
	return true
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
	return m + " " + r.URL + "?"
}

// EncodedForm returns the submitted fields as url.Values.Encode writes
// them: the part of the key after the URL's "?". It is empty for plain
// navigation.
func (r *Request) EncodedForm() string {
	if r.key == "" {
		return ""
	}
	return r.key[len(r.Method)+1+len(r.URL)+1:]
}

// Param returns the first value of a form parameter, merging the URL query
// string with the submitted form (form wins). This is what a CGI script of
// the era saw. Both are read in place, as url.ParseQuery would read them.
func (r *Request) Param(name string) string {
	if v := queryValue(r.EncodedForm(), name); v != "" {
		return v
	}
	rawurl, _, _ := strings.Cut(r.URL, "#")
	_, query, _ := strings.Cut(rawurl, "?")
	return queryValue(query, name)
}

// queryValue is url.ParseQuery(query).Get(name), read without building the
// map: the first well-formed pair named name gives the value.
func queryValue(query, name string) string {
	for query != "" {
		var pair string
		pair, query, _ = strings.Cut(query, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != name {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// Response is a fetched page. It is handed around by pointer, never
// copied: the value derived from its body (Derived) belongs to its bytes.
type Response struct {
	Status int    // HTTP-style status code
	URL    string // final URL (after any redirect collapsing)
	Body   []byte // page bytes, typically HTML

	derived derived
}

// derived is the one value a Response's body is turned into (Derived).
// Its sync.Once is also what makes go vet's copylocks check flag a
// Response copied by value: the copy would carry a value derived from the
// original's bytes, whatever bytes it is given.
type derived struct {
	once  sync.Once
	built atomic.Bool // v is set
	v     any
}

// Derived returns the value build makes of the response, calling build on
// first use only: every later call, and every call racing the first, is
// handed what that one call built. build reads nothing but the response.
//
// A cache hit hands every query the same *Response, so a derived value
// lives exactly as long as the cache entry holding its bytes: Cache.Clear,
// a refetch and a durable-tier load each bring a Response of their own.
// The navigation layer keeps the parsed page of an input-free request here
// (DESIGN.md §6).
func (r *Response) Derived(build func() any) any {
	r.derived.once.Do(func() {
		r.derived.v = build()
		r.derived.built.Store(true)
	})
	return r.derived.v
}

// PeekDerived returns the value Derived has built, and false while none
// has been.
func (r *Response) PeekDerived() (any, bool) {
	if !r.derived.built.Load() {
		return nil, false
	}
	return r.derived.v, true
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
//
// A fetcher must not use req after its Fetch returns: the caller may reuse
// it, as the navigation layer does with the request its execution lends
// (DESIGN.md §23). What the request carries is the caller's to keep: its
// key, and its URL, a substring of the key, are strings of their own. A
// fetcher whose work outlives its Fetch copies the request first, as
// WithHedge does for its losing attempt.
type Fetcher interface {
	Fetch(req *Request) (*Response, error)
}

// FetcherFunc adapts a function to the Fetcher interface.
type FetcherFunc func(req *Request) (*Response, error)

// Fetch implements Fetcher.
func (f FetcherFunc) Fetch(req *Request) (*Response, error) { return f(req) }

// Server is the simulated Web: a set of sites indexed by host. It
// implements Fetcher. Server is safe for concurrent use once all sites are
// registered.
type Server struct {
	mu    sync.RWMutex
	sites map[string]*Mux
}

// NewServer returns an empty simulated Web.
func NewServer() *Server {
	return &Server{sites: make(map[string]*Mux)}
}

// Register adds a site, replacing any previous site on the same host.
func (s *Server) Register(site *Mux) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sites[site.host] = site
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

// Fetch routes the request to the site owning the URL's host, which
// dispatches it by the path parsed here: a URL is parsed once. A path no
// handler serves is a 404 page, not an error.
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
	return site.serve(req, u.Path)
}

// Mux is one simulated Web site: it dispatches requests within its host by
// URL path. The zero value is not usable; call NewMux.
type Mux struct {
	host     string
	mu       sync.RWMutex
	handlers map[string]FetcherFunc
}

// NewMux returns a Mux serving the given host.
func NewMux(host string) *Mux {
	return &Mux{host: host, handlers: make(map[string]FetcherFunc)}
}

// Handle registers a handler for an exact path ("/", "/cgi-bin/search").
func (m *Mux) Handle(path string, h FetcherFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlers[path] = h
}

// serve dispatches req, whose URL's path is path: exact-path dispatch,
// 404 otherwise.
func (m *Mux) serve(req *Request, path string) (*Response, error) {
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
