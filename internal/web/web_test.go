package web

import (
	"context"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func demoSite(host string) *Mux {
	m := NewMux(host)
	m.Handle("/", FetcherFunc(func(req *Request) (*Response, error) {
		return HTML(req.URL, "<html><body>home of "+host+"</body></html>"), nil
	}))
	m.Handle("/cgi/echo", FetcherFunc(func(req *Request) (*Response, error) {
		return HTML(req.URL, "<html><body>q="+req.Param("q")+"</body></html>"), nil
	}))
	return m
}

func TestServerRouting(t *testing.T) {
	s := NewServer()
	s.Register(demoSite("a.example"))
	s.Register(demoSite("b.example"))

	resp, err := s.Fetch(NewGet(context.Background(), "http://a.example/"))
	if err != nil || !resp.OK() {
		t.Fatalf("fetch a: %v %v", resp, err)
	}
	if !strings.Contains(string(resp.Body), "home of a.example") {
		t.Errorf("wrong body: %s", resp.Body)
	}
	if _, err := s.Fetch(NewGet(context.Background(), "http://missing.example/")); err == nil {
		t.Error("expected error for unknown host")
	}
	if hosts := s.Hosts(); len(hosts) != 2 || hosts[0] != "a.example" {
		t.Errorf("hosts = %v", hosts)
	}
}

func TestMux404AndBadURL(t *testing.T) {
	s := NewServer()
	s.Register(demoSite("a.example"))
	resp, err := s.Fetch(NewGet(context.Background(), "http://a.example/nope"))
	if err != nil || resp.Status != 404 {
		t.Errorf("expected 404, got %v %v", resp, err)
	}
	if _, err := s.Fetch(NewGet(context.Background(), "http://bad url")); err == nil {
		t.Error("expected parse error")
	}
}

func TestRequestParamMergesQueryAndForm(t *testing.T) {
	req := NewSubmit(context.Background(), "http://h/cgi?q=fromurl&r=1", "GET", []Field{{"q", "fromform"}})
	if got := req.Param("q"); got != "fromform" {
		t.Errorf("form should win: %q", got)
	}
	if got := req.Param("r"); got != "1" {
		t.Errorf("url query fallback: %q", got)
	}
	if got := req.Param("zz"); got != "" {
		t.Errorf("missing param: %q", got)
	}
	// Both are decoded as url.ParseQuery decodes them; a malformed pair is
	// skipped, and an empty form value falls back to the URL's.
	req = NewSubmit(context.Background(), "http://h/cgi?a=%zz&a=url+a&e=fromurl#frag", "POST",
		[]Field{{"e", ""}, {"s p", "x&y=z"}})
	for name, want := range map[string]string{"a": "url a", "e": "fromurl", "s p": "x&y=z", "frag": ""} {
		if got := req.Param(name); got != want {
			t.Errorf("Param(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestRequestKeyCanonical(t *testing.T) {
	a := NewSubmit(context.Background(), "http://h/s", "POST", []Field{{"x", "1"}, {"y", "2"}})
	b := NewSubmit(context.Background(), "http://h/s", "post", []Field{{"y", "2"}, {"x", "1"}})
	if a.Key() != b.Key() {
		t.Error("keys should be order-independent")
	}
	if want := "POST http://h/s?x=1&y=2"; a.Key() != want || a.Method != "POST" || a.EncodedForm() != "x=1&y=2" {
		t.Errorf("key %q, method %q, form %q; want key %q", a.Key(), a.Method, a.EncodedForm(), want)
	}
	c := NewGet(context.Background(), "http://h/s")
	if a.Key() == c.Key() {
		t.Error("method must differentiate keys")
	}
	// A built request carries its key; a literal GET builds the same one
	// on demand.
	for _, r := range []*Request{c, NewSubmit(context.Background(), "http://h/s?q=1", "", nil)} {
		lit := &Request{URL: r.URL, Method: r.Method}
		if r.Key() != lit.Key() || r.EncodedForm() != "" {
			t.Errorf("built key %q, literal's %q, form %q", r.Key(), lit.Key(), r.EncodedForm())
		}
	}
	if got := (&Request{URL: "http://h/s"}).Key(); got != c.Key() {
		t.Errorf("a literal with no method keys as %q, want the GET key %q", got, c.Key())
	}
}

// TestBuiltRequestURLOwnsItsBytes: a URL is read off a page as a substring
// of its text, and the fetch stack keeps the URL it is given (the cache
// stores it with the response); a built request's URL must not share the
// page's bytes, or the cache would keep every page a link was read off.
func TestBuiltRequestURLOwnsItsBytes(t *testing.T) {
	page := `<a href="http://h/next?p=2">More</a>`
	link := page[9:26]
	for _, r := range []*Request{NewGet(context.Background(), link), NewSubmit(context.Background(), link, "post", []Field{{"a", "b"}})} {
		if r.URL != link {
			t.Fatalf("URL = %q, want %q", r.URL, link)
		}
		start := uintptr(unsafe.Pointer(unsafe.StringData(page)))
		at := uintptr(unsafe.Pointer(unsafe.StringData(r.URL)))
		if at >= start && at < start+uintptr(len(page)) {
			t.Errorf("%s request's URL points into the page it was read off", r.Method)
		}
	}
}

// hostPages counts, per host, the fetches through it that succeed.
type hostPages struct {
	inner Fetcher
	mu    sync.Mutex
	n     map[string]int64
}

func (h *hostPages) Fetch(req *Request) (*Response, error) {
	resp, err := h.inner.Fetch(req)
	if err == nil {
		h.mu.Lock()
		if h.n == nil {
			h.n = make(map[string]int64)
		}
		h.n[HostOf(req.URL)]++
		h.mu.Unlock()
	}
	return resp, err
}

func (h *hostPages) count(host string) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n[host]
}

func TestCountingStats(t *testing.T) {
	s := NewServer()
	s.Register(demoSite("a.example"))
	var stats Stats
	hosts := &hostPages{inner: s}
	f := Counting(hosts, &stats)
	for i := 0; i < 3; i++ {
		if _, err := f.Fetch(NewGet(context.Background(), "http://a.example/")); err != nil {
			t.Fatal(err)
		}
	}
	if stats.Get(Pages) != 3 {
		t.Errorf("pages = %d", stats.Get(Pages))
	}
	if stats.Get(BodyBytes) == 0 {
		t.Error("bytes not recorded")
	}
	if got := hosts.count("a.example"); got != 3 {
		t.Errorf("a.example served %d pages, want 3", got)
	}
}

func TestCountingConcurrent(t *testing.T) {
	s := NewServer()
	s.Register(demoSite("a.example"))
	var stats Stats
	f := Counting(s, &stats)
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				f.Fetch(NewGet(context.Background(), "http://a.example/"))
			}
		}()
	}
	wg.Wait()
	if stats.Get(Pages) != 200 {
		t.Errorf("pages = %d, want 200", stats.Get(Pages))
	}
}

func TestLatencyModelDeterministic(t *testing.T) {
	m := LatencyModel{PerRequest: time.Millisecond, PerKB: time.Millisecond, Jitter: 5 * time.Millisecond}
	d1 := m.Latency("http://a/x", 2048)
	d2 := m.Latency("http://a/x", 2048)
	if d1 != d2 {
		t.Error("latency must be deterministic per URL")
	}
	if d1 < 3*time.Millisecond { // 1ms base + 2ms for 2KB
		t.Errorf("latency %v too small", d1)
	}
	if m.Latency("http://a/x", 0) == m.Latency("http://a/y", 0) {
		t.Log("jitter collision (allowed but unlikely)")
	}
}

func TestWithLatencyVirtualAccounting(t *testing.T) {
	s := NewServer()
	s.Register(demoSite("a.example"))
	var stats Stats
	f := WithLatency(s, LatencyModel{PerRequest: 10 * time.Millisecond}, &stats)
	start := time.Now()
	f.Fetch(NewGet(context.Background(), "http://a.example/"))
	f.Fetch(NewGet(context.Background(), "http://a.example/"))
	if el := time.Since(start); el > 5*time.Millisecond {
		t.Errorf("non-sleeping latency fetcher slept: %v", el)
	}
	if got := time.Duration(stats.Get(Simulated)); got != 20*time.Millisecond {
		t.Errorf("virtual latency = %v, want 20ms", got)
	}
}

func TestWithLatencySleeps(t *testing.T) {
	s := NewServer()
	s.Register(demoSite("a.example"))
	var stats Stats
	f := WithLatency(s, LatencyModel{PerRequest: 5 * time.Millisecond, Sleep: true}, &stats)
	start := time.Now()
	f.Fetch(NewGet(context.Background(), "http://a.example/"))
	if el := time.Since(start); el < 5*time.Millisecond {
		t.Errorf("sleeping latency fetcher returned too fast: %v", el)
	}
}

func TestCache(t *testing.T) {
	s := NewServer()
	s.Register(demoSite("a.example"))
	st := NewStack(s, LatencyModel{}, nil, nil, Policy{})
	f, stats, cache := st.Fetcher, st.Stats, st.Cache

	for i := 0; i < 5; i++ {
		resp, err := f.Fetch(NewGet(context.Background(), "http://a.example/cgi/echo?q=ford"))
		if err != nil || !strings.Contains(string(resp.Body), "q=ford") {
			t.Fatalf("fetch %d: %v %v", i, resp, err)
		}
	}
	if stats.Get(Pages) != 1 {
		t.Errorf("inner fetches = %d, want 1 (cache should absorb repeats)", stats.Get(Pages))
	}
	if cache.Hits() != 4 || cache.Misses() != 1 {
		t.Errorf("hits/misses = %d/%d", cache.Hits(), cache.Misses())
	}
	// Distinct form values are distinct entries.
	f.Fetch(NewSubmit(context.Background(), "http://a.example/cgi/echo", "GET", []Field{{"q", "jaguar"}}))
	if cache.Len() != 2 {
		t.Errorf("cache len = %d, want 2", cache.Len())
	}
	cache.Clear()
	if cache.Len() != 0 {
		t.Error("clear failed")
	}
}

func TestHTTPRoundTrip(t *testing.T) {
	// Simulated web → net/http server → HTTPFetcher → same pages.
	s := NewServer()
	site := demoSite("a.example")
	// /cgi/form echoes three fields and keeps the request the site was
	// served, as HTTPHandler rebuilt it.
	var served []*Request
	site.Handle("/cgi/form", FetcherFunc(func(req *Request) (*Response, error) {
		served = append(served, req)
		return HTML(req.URL, "<p>q="+req.Param("q")+" r="+req.Param("r")+" xy="+req.Param("x y")+"</p>"), nil
	}))
	s.Register(site)
	ts := httptest.NewServer(HTTPHandler(s, "http", "a.example"))
	defer ts.Close()

	hf := &HTTPFetcher{Rewrite: func(u string) string {
		return strings.Replace(u, "http://a.example", ts.URL, 1)
	}}
	resp, err := hf.Fetch(NewGet(context.Background(), "http://a.example/cgi/echo?q=ford"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(resp.Body), "q=ford") {
		t.Errorf("body: %s", resp.Body)
	}
	// POST path.
	resp, err = hf.Fetch(NewSubmit(context.Background(), "http://a.example/cgi/echo", "POST", []Field{{"q", "gm"}}))
	if err != nil || !strings.Contains(string(resp.Body), "q=gm") {
		t.Errorf("post body: %v %v", resp, err)
	}

	// A GET submission whose action already carries a query: the form
	// follows the query after '&'.
	sent := NewSubmit(context.Background(), "http://a.example/cgi/form?r=url", "GET", []Field{{"q", "saab"}})
	resp, err = hf.Fetch(sent)
	if err != nil || !strings.Contains(string(resp.Body), "q=saab r=url") {
		t.Errorf("get submission onto a query: %v %v", resp, err)
	}
	if got, want := served[len(served)-1].URL, "http://a.example/cgi/form?r=url&q=saab"; got != want {
		t.Errorf("get submission served as %q, want %q", got, want)
	}

	// A multi-field form whose names and values need escaping arrives as
	// it was sent: by GET in the URL's query, by POST in the body, where
	// the site's request has the key it was sent with.
	fields := []Field{{"x y", "?#"}, {"r", "100%+1"}, {"q", "a&b=c d/é"}}
	const echo = "q=a&b=c d/é r=100%+1 xy=?#"
	for _, method := range []string{"GET", "POST"} {
		sent := NewSubmit(context.Background(), "http://a.example/cgi/form", method, slices.Clone(fields))
		resp, err = hf.Fetch(sent)
		if err != nil || !strings.Contains(string(resp.Body), echo) {
			t.Errorf("%s escaped form: %v %v", method, resp, err)
			continue
		}
		got := served[len(served)-1]
		if method == "GET" {
			if want := sent.URL + "?" + sent.EncodedForm(); got.URL != want {
				t.Errorf("GET escaped form served as %q, want %q", got.URL, want)
			}
		} else if got.Key() != sent.Key() {
			t.Errorf("POST escaped form served under key %q, sent as %q", got.Key(), sent.Key())
		}
	}
}

func TestHostOf(t *testing.T) {
	cases := map[string]string{
		"http://a.example/x?y=1": "a.example",
		"http://a.example":       "a.example",
		"http://a.example?x=1":   "a.example",
		"noscheme":               "noscheme",
	}
	for in, want := range cases {
		if got := hostOf(in); got != want {
			t.Errorf("hostOf(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestResponseDerivedBuiltOnce: callers racing on a response's first
// Derived call share the one value a single build made, and PeekDerived
// sees it only once it is built. Run under -race.
func TestResponseDerivedBuiltOnce(t *testing.T) {
	resp := HTML("http://a.example/", "<html>a</html>")
	if v, ok := resp.PeekDerived(); ok || v != nil {
		t.Fatalf("PeekDerived before any build = %v, %v", v, ok)
	}
	var builds int
	const callers = 8
	got := make([]any, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = resp.Derived(func() any {
				builds++ // a second build races the first
				return new(string)
			})
		}(i)
	}
	wg.Wait()
	if builds != 1 {
		t.Fatalf("%d builds, want 1", builds)
	}
	for i := range got {
		if got[i] != got[0] {
			t.Errorf("caller %d got a value of its own", i)
		}
	}
	if v, ok := resp.PeekDerived(); !ok || v != got[0] {
		t.Errorf("PeekDerived after the build = %v, %v; want the built value", v, ok)
	}
}
