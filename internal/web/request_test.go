package web

import (
	"context"
	"net/url"
	"strings"
	"testing"

	"webbase/internal/race"
)

// fieldsOf decodes a fuzzer's bytes into a field list: NUL separates the
// fields' names and values in turn, so a run of NULs gives empty ones.
func fieldsOf(raw string) []Field {
	parts := strings.Split(raw, "\x00")
	fields := make([]Field, 0, len(parts)/2+1)
	for i := 0; i < len(parts); i += 2 {
		f := Field{Name: parts[i]}
		if i+1 < len(parts) {
			f.Value = parts[i+1]
		}
		fields = append(fields, f)
	}
	return fields
}

// FuzzRequestKey holds a submission's key byte-equal to the one url.Values
// gave it: the method upper-cased, the action, and the fields Set in turn
// and encoded. AppendKey writes the same bytes into a reused buffer, and
// KeyedRequest reads the same request back from them. The durable page
// tier stores these keys on disk, so one changed byte would cold-start
// every warm state directory. Param is held
// to the url.Values reading of the same request: the form's value when it
// is not empty, else the action's query.
func FuzzRequestKey(f *testing.F) {
	f.Add("http://h/cgi-bin/find", "get", "make\x00ford\x00model\x00escort")
	f.Add("http://h/cgi?q=1&r=a+b", "POST", "q\x00x\x00q\x00y")
	f.Add("http://h/s", "", "a\x00\x00b")
	f.Add("http://h/s?x=%zz;y", "Post", "n m\x00&=?#%\x00é\x00+~._-\x00\x00v")
	f.Fuzz(func(t *testing.T, action, method, raw string) {
		fields := fieldsOf(raw)
		ref := url.Values{}
		for _, fl := range fields {
			ref.Set(fl.Name, fl.Value)
		}
		m := strings.ToUpper(method)
		if m == "" {
			m = "GET"
		}
		req := NewSubmit(context.Background(), action, method, fields)
		if want := m + " " + action + "?" + ref.Encode(); req.Key() != want {
			t.Fatalf("key %q, want %q", req.Key(), want)
		}
		if req.URL != action || req.Method != m || req.EncodedForm() != ref.Encode() {
			t.Fatalf("URL %q, method %q, form %q; want %q, %q, %q",
				req.URL, req.Method, req.EncodedForm(), action, m, ref.Encode())
		}
		// The appending encoder writes the same key into a buffer that held
		// a longer one, and a request made from that key is the same.
		buf := AppendKey(nil, action+"/a/longer/action", "POST", []Field{{Name: "stale", Value: raw + " bytes"}})
		buf = AppendKey(buf[:0], action, method, fields)
		if string(buf) != req.Key() {
			t.Fatalf("appended key %q, want %q", buf, req.Key())
		}
		kr := KeyedRequest(context.Background(), method, string(buf))
		if kr.URL != req.URL || kr.Method != req.Method || kr.Key() != req.Key() || kr.EncodedForm() != req.EncodedForm() {
			t.Fatalf("a request from the appended key reads %q %q %q, want %q %q %q",
				kr.Method, kr.URL, kr.EncodedForm(), req.Method, req.URL, req.EncodedForm())
		}
		// Param reads the URL in place; the url.Values reading needs it to
		// parse (Server.Fetch serves no request whose URL does not).
		u, err := url.Parse(action)
		if err != nil {
			return
		}
		query := u.Query()
		for _, fl := range fields {
			want := ref.Get(fl.Name)
			if want == "" {
				want = query.Get(fl.Name)
			}
			if got := req.Param(fl.Name); got != want {
				t.Fatalf("Param(%q) = %q, want %q", fl.Name, got, want)
			}
		}
		for name := range query {
			if ref.Get(name) == "" && req.Param(name) != query.Get(name) {
				t.Fatalf("Param(%q) = %q, want the query's %q", name, req.Param(name), query.Get(name))
			}
		}
	})
}

// TestRequestAllocs: a GET and a submission each cost their request and
// its key, whatever the fields need escaping, and fetching one adds
// nothing for the context it carries. A submission's fields are sorted
// where they lie.
func TestRequestAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	ctx := context.WithValue(context.Background(), ctxKey{}, "span")
	var at [4]Field
	cases := []struct {
		name  string
		build func() *Request
	}{
		{"get", func() *Request { return NewGet(ctx, "http://h/cgi-bin/find?make=ford") }},
		{"submit", func() *Request {
			fields := append(at[:0], Field{"model", "escort"}, Field{"make", "ford"}, Field{"x y", "a&b"}, Field{"make", "jaguar"})
			return NewSubmit(ctx, "http://h/cgi-bin/find", "get", fields)
		}},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(100, func() { c.build() }); got != 2 {
			t.Errorf("building a %s request allocates %.0f times, want 2: the request and its key", c.name, got)
		}
		var served context.Context
		f := FetcherFunc(func(req *Request) (*Response, error) {
			served = req.Context()
			return nil, nil
		})
		if got := testing.AllocsPerRun(100, func() { f.Fetch(c.build()) }); got != 2 {
			t.Errorf("building and fetching a %s request allocates %.0f times, want 2", c.name, got)
		}
		if served != ctx {
			t.Errorf("the %s request was fetched under %v, want the context it was built with", c.name, served)
		}
	}
}

type ctxKey struct{}
