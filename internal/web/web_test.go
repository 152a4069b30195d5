package web

import (
	"context"
	"net/http/httptest"
	"net/url"
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

	resp, err := s.Fetch(NewGet("http://a.example/"))
	if err != nil || !resp.OK() {
		t.Fatalf("fetch a: %v %v", resp, err)
	}
	if !strings.Contains(string(resp.Body), "home of a.example") {
		t.Errorf("wrong body: %s", resp.Body)
	}
	if _, err := s.Fetch(NewGet("http://missing.example/")); err == nil {
		t.Error("expected error for unknown host")
	}
	if hosts := s.Hosts(); len(hosts) != 2 || hosts[0] != "a.example" {
		t.Errorf("hosts = %v", hosts)
	}
}

func TestMux404AndBadURL(t *testing.T) {
	m := demoSite("a.example")
	resp, err := m.Serve(NewGet("http://a.example/nope"))
	if err != nil || resp.Status != 404 {
		t.Errorf("expected 404, got %v %v", resp, err)
	}
	if _, err := m.Serve(NewGet("http://bad url")); err == nil {
		t.Error("expected parse error")
	}
}

func TestRequestParamMergesQueryAndForm(t *testing.T) {
	req := NewSubmit("http://h/cgi?q=fromurl&r=1", "GET", url.Values{"q": {"fromform"}})
	if got := req.Param("q"); got != "fromform" {
		t.Errorf("form should win: %q", got)
	}
	if got := req.Param("r"); got != "1" {
		t.Errorf("url query fallback: %q", got)
	}
	if got := req.Param("zz"); got != "" {
		t.Errorf("missing param: %q", got)
	}
}

func TestRequestKeyCanonical(t *testing.T) {
	a := NewSubmit("http://h/s", "POST", url.Values{"x": {"1"}, "y": {"2"}})
	b := NewSubmit("http://h/s", "POST", url.Values{"y": {"2"}, "x": {"1"}})
	if a.Key() != b.Key() {
		t.Error("keys should be order-independent")
	}
	c := NewGet("http://h/s")
	if a.Key() == c.Key() {
		t.Error("method must differentiate keys")
	}
	// A built request carries its key; a literal builds the same one on
	// demand, and a copy made by WithContext keeps it.
	for _, r := range []*Request{a, c, NewSubmit("http://h/s?q=1", "", nil)} {
		lit := &Request{URL: r.URL, Method: r.Method, Form: r.Form}
		if r.Key() != lit.Key() || r.WithContext(context.Background()).Key() != r.Key() {
			t.Errorf("built key %q, literal's %q, copy's %q", r.Key(), lit.Key(), r.WithContext(context.Background()).Key())
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
	for _, r := range []*Request{NewGet(link), NewSubmit(link, "post", url.Values{"a": {"b"}})} {
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

func TestCountingStats(t *testing.T) {
	s := NewServer()
	s.Register(demoSite("a.example"))
	var stats Stats
	f := Counting(s, &stats)
	for i := 0; i < 3; i++ {
		if _, err := f.Fetch(NewGet("http://a.example/")); err != nil {
			t.Fatal(err)
		}
	}
	if stats.Pages() != 3 {
		t.Errorf("pages = %d", stats.Pages())
	}
	if stats.Bytes() == 0 {
		t.Error("bytes not recorded")
	}
	if stats.PerHost()["a.example"] != 3 {
		t.Errorf("per-host = %v", stats.PerHost())
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
				f.Fetch(NewGet("http://a.example/"))
			}
		}()
	}
	wg.Wait()
	if stats.Pages() != 200 {
		t.Errorf("pages = %d, want 200", stats.Pages())
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
	f.Fetch(NewGet("http://a.example/"))
	f.Fetch(NewGet("http://a.example/"))
	if el := time.Since(start); el > 5*time.Millisecond {
		t.Errorf("non-sleeping latency fetcher slept: %v", el)
	}
	if got := stats.SimulatedLatency(); got != 20*time.Millisecond {
		t.Errorf("virtual latency = %v, want 20ms", got)
	}
}

func TestWithLatencySleeps(t *testing.T) {
	s := NewServer()
	s.Register(demoSite("a.example"))
	var stats Stats
	f := WithLatency(s, LatencyModel{PerRequest: 5 * time.Millisecond, Sleep: true}, &stats)
	start := time.Now()
	f.Fetch(NewGet("http://a.example/"))
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
		resp, err := f.Fetch(NewGet("http://a.example/cgi/echo?q=ford"))
		if err != nil || !strings.Contains(string(resp.Body), "q=ford") {
			t.Fatalf("fetch %d: %v %v", i, resp, err)
		}
	}
	if stats.Pages() != 1 {
		t.Errorf("inner fetches = %d, want 1 (cache should absorb repeats)", stats.Pages())
	}
	if cache.Hits() != 4 || cache.Misses() != 1 {
		t.Errorf("hits/misses = %d/%d", cache.Hits(), cache.Misses())
	}
	// Distinct form values are distinct entries.
	f.Fetch(NewSubmit("http://a.example/cgi/echo", "GET", url.Values{"q": {"jaguar"}}))
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
	s.Register(demoSite("a.example"))
	ts := httptest.NewServer(HTTPHandler(s, "http", "a.example"))
	defer ts.Close()

	hf := &HTTPFetcher{Rewrite: func(u string) string {
		return strings.Replace(u, "http://a.example", ts.URL, 1)
	}}
	resp, err := hf.Fetch(NewGet("http://a.example/cgi/echo?q=ford"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(resp.Body), "q=ford") {
		t.Errorf("body: %s", resp.Body)
	}
	// POST path.
	resp, err = hf.Fetch(NewSubmit("http://a.example/cgi/echo", "POST", url.Values{"q": {"gm"}}))
	if err != nil || !strings.Contains(string(resp.Body), "q=gm") {
		t.Errorf("post body: %v %v", resp, err)
	}
}

func TestParseQueryLenient(t *testing.T) {
	if v := ParseQuery("a=1&b=2"); v.Get("b") != "2" {
		t.Error("parse failed")
	}
	if v := ParseQuery("%zz=bad"); len(v) != 0 {
		t.Error("bad query should be empty")
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
