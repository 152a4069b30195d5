package server

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"webbase/internal/core"
	"webbase/internal/race"
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

// record runs one request against the handler and returns what it wrote.
func record(t *testing.T, h http.Handler, query string, header map[string]string) *flushRecorder {
	t.Helper()
	rec := serve(h, query, header)
	if len(rec.flushes) == 0 {
		t.Fatalf("stream never flushed (%d bytes)", rec.body.Len())
	}
	return rec
}

// inflate decompresses a gzip stream or a prefix of one. A prefix always
// ends in an unexpected EOF (the stream goes on) and is not an error here;
// any other decoding error is.
func inflate(t *testing.T, b []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := io.ReadAll(zr)
	if err != nil && err != io.ErrUnexpectedEOF {
		t.Fatalf("inflate %d bytes: %v", len(b), err)
	}
	return plain
}

// firstChunk runs one request against the handler and returns the lines
// that arrive with the first flush, inflated when the stream is gzip.
func firstChunk(t *testing.T, h http.Handler, header map[string]string) []map[string]any {
	t.Helper()
	rec := record(t, h, wideQuery, header)
	chunk := rec.body.Bytes()[:rec.flushes[0]]
	if rec.header.Get("Content-Encoding") == "gzip" {
		chunk = inflate(t, chunk)
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

// syncMarker ends every flush: the empty stored block.
var syncMarker = []byte{0x00, 0x00, 0xff, 0xff}

// TestGzipEveryEventFlushEndsInSyncMarker pins the flush contract through
// the handler, for a fresh stream and a resumed one: every chunk a client
// receives ends in the sync marker, and every prefix up to a flush inflates
// to whole lines, one more event each time. bench's severTransport cuts a
// stream on exactly this.
func TestGzipEveryEventFlushEndsInSyncMarker(t *testing.T) {
	ts, _ := newCarServer(t, core.Config{}, Config{})
	h := ts.Config.Handler
	fresh := record(t, h, wideQuery, map[string]string{"Accept-Encoding": "gzip"})
	token, _ := decodeLines(t, bytes.NewReader(inflate(t, fresh.body.Bytes())))[0]["resume_token"].(string)
	resumed := record(t, h, wideQuery, map[string]string{"Accept-Encoding": "gzip", "Last-Event-Index": "1", "X-Resume-Token": token})
	for name, rec := range map[string]*flushRecorder{"fresh": fresh, "resumed": resumed} {
		lines := 0
		for i, at := range rec.flushes {
			prefix := rec.body.Bytes()[:at]
			if !bytes.HasSuffix(prefix, syncMarker) {
				t.Fatalf("%s: flush %d ends in % x, not the sync marker", name, i, prefix[max(0, at-4):])
			}
			plain := inflate(t, prefix)
			if len(plain) == 0 || plain[len(plain)-1] != '\n' {
				t.Fatalf("%s: flush %d inflates to a partial line: %q", name, i, plain)
			}
			n := bytes.Count(plain, []byte{'\n'})
			if n <= lines {
				t.Fatalf("%s: flush %d carries no new event (%d lines)", name, i, n)
			}
			lines = n
		}
		if all := decodeLines(t, bytes.NewReader(inflate(t, rec.body.Bytes()))); len(all) != lines || all[len(all)-1]["event"] != "trailer" {
			t.Fatalf("%s: %d lines after the last flush, %d in the stream", name, lines, len(all))
		}
	}
}

// freshGzipStream is a stream onto w that no earlier stream has used.
func freshGzipStream(w io.Writer) *gzipStream {
	z := new(gzipStream)
	z.reset(w)
	return z
}

// checkGzipStream writes each segment and flushes it: after every flush the
// output ends in the sync marker and inflates to exactly what was written;
// after Close it is a whole gzip stream, CRC and length checked by the
// reader. One reader inflates the output as it grows, so each flush is
// decoded once: it must hand back the segment before it reads past the
// flush, which a decoder asking for bytes not yet written would fail with
// an unexpected EOF.
func checkGzipStream(t *testing.T, segments [][]byte) {
	t.Helper()
	var out, want bytes.Buffer
	z := freshGzipStream(&out)
	grown := &growingReader{buf: &out}
	var zr *gzip.Reader
	for i, seg := range segments {
		if n, err := z.Write(seg); n != len(seg) || err != nil {
			t.Fatalf("segment %d: Write = %d, %v", i, n, err)
		}
		want.Write(seg)
		if err := z.Flush(); err != nil {
			t.Fatalf("segment %d: Flush: %v", i, err)
		}
		if !bytes.HasSuffix(out.Bytes(), syncMarker) {
			t.Fatalf("segment %d: flush does not end in the sync marker", i)
		}
		if zr == nil {
			var err error
			if zr, err = gzip.NewReader(grown); err != nil {
				t.Fatal(err)
			}
		}
		got := make([]byte, len(seg))
		if n, err := io.ReadFull(zr, got); err != nil || !bytes.Equal(got, seg) {
			t.Fatalf("segment %d: the flushed output inflates to %d bytes of the %d written (%v), or to other bytes", i, n, len(seg), err)
		}
	}
	if err := z.Close(); err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("closed stream: %v", err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("closed stream inflates to %d bytes, %d written", len(got), want.Len())
	}
}

// growingReader reads buf as it grows, and reports io.EOF at what has been
// written so far. It is a ByteReader, so compress/flate reads it a byte at
// a time as it decodes and never reads ahead.
type growingReader struct {
	buf *bytes.Buffer
	off int
}

func (g *growingReader) Read(p []byte) (int, error) {
	if g.off == g.buf.Len() {
		return 0, io.EOF
	}
	n := copy(p, g.buf.Bytes()[g.off:])
	g.off += n
	return n, nil
}

func (g *growingReader) ReadByte() (byte, error) {
	if g.off == g.buf.Len() {
		return 0, io.EOF
	}
	g.off++
	return g.buf.Bytes()[g.off-1], nil
}

// TestGzipStreamRoundTrip: seeded random events of 0 to 100 KiB, each
// flushed, mixing incompressible bytes, runs, and copies from up to 40 KiB
// back, so matches of every length, distances past the window and the
// window slide all run.
func TestGzipStreamRoundTrip(t *testing.T) {
	checkGzipStream(t, seededSegments())
}

// seededSegments are TestGzipStreamRoundTrip's events.
func seededSegments() [][]byte {
	rng := rand.New(rand.NewSource(1))
	var all []byte
	var segments [][]byte
	for len(segments) < 24 {
		seg := make([]byte, 0, rng.Intn(100<<10+1))
		for len(seg) < cap(seg) {
			n := min(1+rng.Intn(600), cap(seg)-len(seg))
			switch rng.Intn(3) {
			case 0:
				for range n {
					seg = append(seg, byte(rng.Intn(256)))
				}
			case 1:
				seg = append(seg, bytes.Repeat([]byte{byte(rng.Intn(256))}, n)...)
			default:
				src := append(all, seg...)
				if len(src) < n {
					continue
				}
				from := len(src) - n - rng.Intn(min(len(src)-n, 40<<10)+1)
				seg = append(seg, src[from:from+n]...)
			}
		}
		all = append(all, seg...)
		segments = append(segments, seg)
	}
	return segments
}

// compressSegments resets z onto a new buffer, writes and flushes each
// segment, closes the stream and returns what it wrote.
func compressSegments(z *gzipStream, segments [][]byte) []byte {
	var out bytes.Buffer
	z.reset(&out)
	for _, seg := range segments {
		z.Write(seg)
		z.Flush()
	}
	z.Close()
	return out.Bytes()
}

// usedGzipStream is a stream that has been through everything a served
// stream can leave behind: a 100 KiB write grew its table to the most
// entries and slid its history past 64 KiB, a write to the response
// failed, and it was closed after that.
func usedGzipStream(t testing.TB) *gzipStream {
	t.Helper()
	rng := rand.New(rand.NewSource(2))
	long := make([]byte, 100<<10)
	for i := range long {
		long[i] = "webbase NDJSON "[rng.Intn(15)]
	}
	z := freshGzipStream(&failWriter{ok: 2})
	z.Write(long) // two slides, each writing the bytes it encodes
	if err := z.Flush(); !errors.Is(err, errWire) {
		t.Fatalf("Flush after the response failed = %v, want %v", err, errWire)
	}
	if err := z.Close(); !errors.Is(err, errWire) {
		t.Fatalf("Close = %v, want %v", err, errWire)
	}
	if len(z.table) != 1<<tableBits || cap(z.hist) < 2*window || z.size != uint32(len(long)) {
		t.Fatalf("the used stream has a table of %d entries, a history of capacity %d and %d bytes written; want %d, at least %d and %d",
			len(z.table), cap(z.hist), z.size, 1<<tableBits, 2*window, len(long))
	}
	return z
}

// recordT1Events serves a T1 query and returns its events, one line each:
// meta, two deliveries and the trailer.
func recordT1Events(t *testing.T) [][]byte {
	t.Helper()
	ts, _ := newCarServer(t, core.Config{}, Config{})
	rec := record(t, ts.Config.Handler, "SELECT Make, Model, Year, Price WHERE Make='ford' AND Model='escort'", nil)
	events := bytes.SplitAfter(rec.body.Bytes(), []byte{'\n'})
	events = events[:len(events)-1] // the empty tail after the last newline
	if len(events) != 4 {
		t.Fatalf("recorded %d events, want meta, two deliveries and the trailer", len(events))
	}
	return events
}

// TestLentGzipStreamMatchesFresh: a stream reset after any use writes
// exactly the bytes a stream no one used writes, for a served T1 stream,
// TestGzipStreamRoundTrip's events and an empty stream, one after another
// on the same used stream.
func TestLentGzipStreamMatchesFresh(t *testing.T) {
	used := usedGzipStream(t)
	for _, in := range []struct {
		name     string
		segments [][]byte
	}{
		{"T1 events", recordT1Events(t)},
		{"seeded segments", seededSegments()},
		{"empty stream", nil},
	} {
		fresh := compressSegments(new(gzipStream), in.segments)
		if lent := compressSegments(used, in.segments); !bytes.Equal(lent, fresh) {
			t.Errorf("%s: the reset stream writes %d bytes that differ from a fresh stream's %d", in.name, len(lent), len(fresh))
		}
	}
}

// FuzzGzipStream: any bytes, cut at any flush points. Each byte of cuts is
// the length of the next segment; what is left after them is the last.
func FuzzGzipStream(f *testing.F) {
	f.Add([]byte(`{"event":"meta","seq":0}`+"\n"+`{"event":"tuples","seq":1}`+"\n"), []byte{25})
	f.Add(bytes.Repeat([]byte("abcd"), 300), []byte{0, 3, 255, 4})
	f.Add([]byte{}, []byte{})
	used := usedGzipStream(f) // and then by every input before this one
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		var segments [][]byte
		for _, c := range cuts {
			n := min(int(c), len(data))
			segments = append(segments, data[:n])
			data = data[n:]
		}
		segments = append(segments, data)
		checkGzipStream(t, segments)
		fresh := compressSegments(new(gzipStream), segments)
		if lent := compressSegments(used, segments); !bytes.Equal(lent, fresh) {
			t.Fatalf("a reset stream writes %d bytes that differ from a fresh stream's %d", len(lent), len(fresh))
		}
	})
}

// failWriter accepts ok writes, then fails every one after.
type failWriter struct {
	ok, calls int
}

var errWire = errors.New("connection reset")

func (f *failWriter) Write(p []byte) (int, error) {
	f.calls++
	if f.calls > f.ok {
		return 0, errWire
	}
	return len(p), nil
}

// TestGzipStreamWriteError: after the first failed write to the response,
// every call returns that error, nothing more reaches the response and
// nothing more is buffered.
func TestGzipStreamWriteError(t *testing.T) {
	w := &failWriter{ok: 1}
	z := freshGzipStream(w)
	z.Write([]byte("first event\n"))
	if err := z.Flush(); err != nil {
		t.Fatal(err)
	}
	z.Write([]byte("second event\n"))
	if err := z.Flush(); !errors.Is(err, errWire) {
		t.Fatalf("Flush after a failed write = %v, want %v", err, errWire)
	}
	held := len(z.hist)
	if n, err := z.Write([]byte("third event\n")); n != 0 || !errors.Is(err, errWire) {
		t.Errorf("Write = %d, %v; want 0, %v", n, err, errWire)
	}
	if err := z.Flush(); !errors.Is(err, errWire) {
		t.Errorf("second Flush = %v", err)
	}
	if err := z.Close(); !errors.Is(err, errWire) {
		t.Errorf("Close = %v", err)
	}
	if w.calls != 2 || len(z.hist) != held || len(z.out) != 0 {
		t.Errorf("after the failure: %d writes reached the response (want 2), history %d → %d bytes, %d bytes buffered",
			w.calls, held, len(z.hist), len(z.out))
	}
}

// TestGzipStreamAllocs is the ceiling on what compressing one served T1
// stream (meta, two deliveries, trailer; one flush per event) on a new
// compressor may allocate:
// 14 KiB, 12.7 measured, of which the history is 6.5 and the hash table,
// sized to the stream, 5. compress/gzip's writer allocates 795 KiB for the
// same stream, almost all of it hash chains sized for any input (DESIGN.md
// §8).
func TestGzipStreamAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	events := recordT1Events(t)
	compress := func() {
		z := freshGzipStream(io.Discard)
		for _, ev := range events {
			z.Write(ev)
			z.Flush()
		}
		z.Close()
	}
	const runs, kbCeiling = 50, 14
	compress()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		compress()
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	t.Logf("one T1 stream of %d bytes: %.1f KiB allocated to compress it (ceiling %d)", len(bytes.Join(events, nil)), kb, kbCeiling)
	if kb > kbCeiling {
		t.Errorf("compressing one T1 stream allocates %.1f KiB, ceiling %d", kb, kbCeiling)
	}
}

// TestLentGzipStreamAllocs is the ceiling for the same T1 stream on a
// stream the server lends: reset onto buffers an earlier stream sized, it
// allocates nothing. The ceiling is 0 allocations and 0.5 KiB.
func TestLentGzipStreamAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	events := recordT1Events(t)
	z := new(gzipStream)
	compress := func() {
		z.reset(io.Discard)
		for _, ev := range events {
			z.Write(ev)
			z.Flush()
		}
		z.Close()
	}
	const runs, kbCeiling = 50, 0.5
	compress() // the first stream sizes the buffers
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		compress()
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	allocs := testing.AllocsPerRun(runs, compress)
	t.Logf("one T1 stream on a lent compressor: %.2f KiB and %.1f allocations (ceilings %.1f and 0)", kb, allocs, kbCeiling)
	if kb > kbCeiling || allocs > 0 {
		t.Errorf("compressing one T1 stream on a lent compressor allocates %.2f KiB in %.1f allocations, ceilings %.1f KiB and 0", kb, allocs, kbCeiling)
	}
}
