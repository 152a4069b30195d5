package server

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"webbase/internal/core"
)

// rawClient disables Go's transparent decompression so tests see the
// wire bytes exactly as sent.
var rawClient = &http.Client{Transport: &http.Transport{DisableCompression: true}}

// TestQueryStreamGzip: a stream requested with Accept-Encoding: gzip
// arrives compressed and decompresses to byte-identical NDJSON — same
// request ID pinned, only the run-dependent trailer stats normalized.
func TestQueryStreamGzip(t *testing.T) {
	ts, _ := newCarServer(t, core.Config{}, Config{})

	fetch := func(gzipped bool) []map[string]any {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/query", strings.NewReader(wideQuery))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-Id", "r-gzip-test")
		if gzipped {
			req.Header.Set("Accept-Encoding", "gzip")
		}
		resp, err := rawClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		body := io.Reader(resp.Body)
		if gzipped {
			if enc := resp.Header.Get("Content-Encoding"); enc != "gzip" {
				t.Fatalf("Content-Encoding = %q, want gzip", enc)
			}
			zr, err := gzip.NewReader(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			body = zr
		} else if enc := resp.Header.Get("Content-Encoding"); enc != "" {
			t.Fatalf("plain request got Content-Encoding %q", enc)
		}
		return decodeLines(t, body)
	}

	plain := normalizeStream(t, fetch(false))
	compressed := normalizeStream(t, fetch(true))
	if plain != compressed {
		t.Fatalf("gzip stream decompresses differently:\nplain %s\n gzip %s", plain, compressed)
	}
}

// TestQueryStreamGzipResume: compression composes with resume — a
// compressed resumed stream stitches byte-identically too.
func TestQueryStreamGzipResume(t *testing.T) {
	ts, _ := newCarServer(t, core.Config{}, Config{})
	lines, token := fullStream(t, ts.URL, wideQuery)
	want := normalizeStream(t, deepCopyLines(t, lines))

	k := 1
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/query", strings.NewReader(wideQuery))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", "gzip")
	req.Header.Set("Last-Event-Index", "1")
	req.Header.Set("X-Resume-Token", token)
	resp, err := rawClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	stitched := append(deepCopyLines(t, lines[:k+1]), decodeLines(t, zr)...)
	if got := normalizeStream(t, stitched); got != want {
		t.Fatalf("gzip resume stitches differently:\n got %s\nwant %s", got, want)
	}
}

// TestMetricsGzip: /metrics honors Accept-Encoding: gzip and the
// decompressed page is byte-identical to the plain one.
func TestMetricsGzip(t *testing.T) {
	ts, _ := newCarServer(t, core.Config{}, Config{})
	// Put something in the registry so the page is non-trivial.
	resp := postQuery(t, ts.URL, "", wideQuery)
	io.Copy(io.Discard, resp.Body)

	get := func(gzipped bool) string {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
		if err != nil {
			t.Fatal(err)
		}
		if gzipped {
			req.Header.Set("Accept-Encoding", "gzip")
		}
		resp, err := rawClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body := io.Reader(resp.Body)
		if gzipped {
			if enc := resp.Header.Get("Content-Encoding"); enc != "gzip" {
				t.Fatalf("Content-Encoding = %q, want gzip", enc)
			}
			zr, err := gzip.NewReader(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			body = zr
		}
		raw, err := io.ReadAll(body)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}

	plain := get(false)
	compressed := get(true)
	if plain != compressed {
		t.Fatalf("gzip /metrics decompresses differently:\nplain:\n%s\ngzip:\n%s", plain, compressed)
	}
	if !strings.Contains(plain, "server_queries_total") {
		t.Fatal("metrics page is empty")
	}
}

// TestGzipAccepted: codings are case-insensitive and q=0 is an explicit
// refusal (RFC 9110 §12.5.3).
func TestGzipAccepted(t *testing.T) {
	for _, tc := range []struct {
		header string
		want   bool
	}{
		{"gzip", true},
		{"GZIP", true},
		{"GZIP;q=1", true},
		{"gzip;q=0", false},
		{"gzip; q=0.0", false},
		{"gzip; q=0.000", false},
		{"gzip ; Q=0", false},
		{"gzip;q=0.5", true},
		{"gzip;q=0.001", true},
		{"identity, gzip;q=0", false},
		{"br, gzip", true},
		{"br;q=0, gzip;q=0.1", true},
		{"gzipped", false},
		{"x-gzip", false},
		{"", false},
	} {
		r := httptest.NewRequest(http.MethodPost, "/query", nil)
		if tc.header != "" {
			r.Header.Set("Accept-Encoding", tc.header)
		}
		if got := gzipAccepted(r); got != tc.want {
			t.Errorf("Accept-Encoding %q: gzipAccepted = %v, want %v", tc.header, got, tc.want)
		}
	}
	// Several header lines are one list.
	r := httptest.NewRequest(http.MethodPost, "/query", nil)
	r.Header.Add("Accept-Encoding", "br")
	r.Header.Add("Accept-Encoding", "Gzip")
	if !gzipAccepted(r) {
		t.Error("gzip on a second Accept-Encoding line was not seen")
	}
}

// TestQueryStreamGzipRefused: a request that refuses gzip with q=0 gets
// the plain NDJSON stream.
func TestQueryStreamGzipRefused(t *testing.T) {
	ts, _ := newCarServer(t, core.Config{}, Config{})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/query", strings.NewReader(wideQuery))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", "gzip;q=0")
	resp, err := rawClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if enc := resp.Header.Get("Content-Encoding"); resp.StatusCode != 200 || enc != "" {
		t.Fatalf("status = %d, Content-Encoding = %q; want 200 and none", resp.StatusCode, enc)
	}
	lines := decodeLines(t, resp.Body) // fails on anything that is not NDJSON
	if len(lines) < 3 || lines[0]["event"] != "meta" || lines[len(lines)-1]["event"] != "trailer" {
		t.Fatalf("not a whole plain stream: %d lines", len(lines))
	}
}

// flushRecorder is a ResponseWriter that remembers where each Flush fell,
// so a test can see the stream in the chunks a client would receive.
type flushRecorder struct {
	header  http.Header
	body    bytes.Buffer
	flushes []int // len(body) at each Flush
}

func (f *flushRecorder) Header() http.Header         { return f.header }
func (f *flushRecorder) WriteHeader(int)             {}
func (f *flushRecorder) Write(p []byte) (int, error) { return f.body.Write(p) }
func (f *flushRecorder) Flush()                      { f.flushes = append(f.flushes, f.body.Len()) }

// firstChunk runs one request against the handler and returns the lines
// that arrive with the first flush, inflated when the stream is gzip. A
// compressed prefix always ends in an unexpected EOF (the stream goes on);
// what matters is that it inflates to whole lines.
func firstChunk(t *testing.T, h http.Handler, header map[string]string) []map[string]any {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(wideQuery))
	for k, v := range header {
		req.Header.Set(k, v)
	}
	rec := &flushRecorder{header: make(http.Header)}
	h.ServeHTTP(rec, req)
	if len(rec.flushes) == 0 {
		t.Fatalf("stream never flushed (%d bytes)", rec.body.Len())
	}
	chunk := rec.body.Bytes()[:rec.flushes[0]]
	if rec.header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(bytes.NewReader(chunk))
		if err != nil {
			t.Fatal(err)
		}
		chunk, _ = io.ReadAll(zr)
	}
	if len(chunk) == 0 || chunk[len(chunk)-1] != '\n' {
		t.Fatalf("first chunk does not end on a line boundary: %q", chunk)
	}
	return decodeLines(t, bytes.NewReader(chunk))
}

// TestFirstChunk: meta has no flush of its own — it arrives together with
// the event that started the stream, so a fresh stream's first chunk is
// exactly two whole lines (meta, seq 1), compressed or not, and a resumed
// stream's (meta suppressed) exactly one.
func TestFirstChunk(t *testing.T) {
	ts, _ := newCarServer(t, core.Config{}, Config{})
	h := ts.Config.Handler
	var token string
	for _, enc := range []string{"gzip", "identity"} {
		lines := firstChunk(t, h, map[string]string{"Accept-Encoding": enc})
		if len(lines) != 2 || lines[0]["event"] != "meta" || lines[1]["seq"] != float64(1) {
			t.Fatalf("%s: first chunk of a fresh stream = %v, want meta and seq 1", enc, lines)
		}
		token, _ = lines[0]["resume_token"].(string)
	}
	for _, enc := range []string{"gzip", "identity"} {
		lines := firstChunk(t, h, map[string]string{"Accept-Encoding": enc, "Last-Event-Index": "1", "X-Resume-Token": token})
		if len(lines) != 1 || lines[0]["seq"] != float64(2) {
			t.Fatalf("%s: first chunk of a stream resumed after seq 1 = %v, want seq 2 alone", enc, lines)
		}
	}
}
