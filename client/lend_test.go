package client

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"webbase/internal/race"
	"webbase/internal/wire"
)

// The lending rule: a stream borrows its readers in Query and gives them
// back exactly once when it ends; the Client keeps given-back readers only
// while another stream is open.

// answerLines is the scripted answer to query q: meta, rows tuples lines
// whose values spell q and the line's number, and the trailer.
func answerLines(q string, rows int) []string {
	lines := []string{fmt.Sprintf(`{"event":"meta","seq":0,"request_id":"r-1","query":%q,"schema":["Q","N"],"resume_token":"tok-1"}`, q)}
	for i := 1; i <= rows; i++ {
		lines = append(lines, fmt.Sprintf(`{"event":"tuples","seq":%d,"index":%d,"object":["o"],"count":2,"tuples":[[%q,%d],[%q,%d]]}`,
			i, i-1, q+strings.Repeat("-", i%50), i, q, -i))
	}
	return append(lines, fmt.Sprintf(`{"event":"trailer","seq":%d,"tuples":%d,"objects":%d,"stats":{}}`, rows+1, 2*rows, rows))
}

// writeGzipLines compresses lines onto w as the server does, one flush
// per line, calling flushed after each.
func writeGzipLines(w io.Writer, lines []string, flushed func()) {
	zw := gzip.NewWriter(w)
	for _, l := range lines {
		io.WriteString(zw, l+"\n")
		zw.Flush()
		flushed()
	}
	zw.Close()
}

// cannedTransport answers POST /query from memory with the gzip body kept
// for the request's query, and a bad-query envelope for any other query.
// It starts no goroutine and allocates nothing but the response.
type cannedTransport map[string][]byte

func (ct cannedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var qr wire.QueryRequest
	readJSON(req, &qr)
	resp := &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Request: req}
	body, ok := ct[qr.Query]
	if ok {
		resp.Header.Set("Content-Encoding", "gzip")
	} else {
		resp.StatusCode = http.StatusBadRequest
		body = []byte(`{"error":{"code":"bad-query","status":400,"message":"scripted failure","request_id":"r-1"}}`)
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

func newCannedClient(t *testing.T, rows int, queries ...string) *Client {
	t.Helper()
	ct := cannedTransport{}
	for _, q := range queries {
		var b bytes.Buffer
		writeGzipLines(&b, answerLines(q, rows), func() {})
		ct[q] = b.Bytes()
	}
	c, err := New(Config{BaseURL: "http://canned.test", HTTPClient: &http.Client{Transport: ct}, MaxAttempts: 2, sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// wantLent fails t unless c has open streams holding readers and idle sets
// kept; an idle client must keep no list either.
func wantLent(t *testing.T, c *Client, open, idle int) {
	t.Helper()
	kept, lent := c.readers.Idle()
	if lent != open || len(kept) != idle {
		t.Fatalf("client has %d streams holding readers and %d sets idle, want %d and %d", lent, len(kept), open, idle)
	}
	if open == 0 && kept != nil {
		t.Fatalf("an idle client keeps a list of capacity %d", cap(kept))
	}
}

// answer renders a stream's deliveries and trailer, and ends it.
func answer(st *Stream) string {
	var b strings.Builder
	for st.Next() {
		d := st.Delivery()
		fmt.Fprintf(&b, "%d %d %v %v\n", d.Seq, d.Index, d.Object, d.Tuples)
	}
	if st.Err() != nil {
		return "error: " + st.Err().Error()
	}
	fmt.Fprintf(&b, "trailer %d %d\n", st.Trailer().Tuples, st.Trailer().Objects)
	st.Close()
	return b.String()
}

// TestLendSequentialStreamsKeepNothing: a stream that ends at its trailer
// gives its readers back, and with no other stream open the client keeps
// none, query after query.
func TestLendSequentialStreamsKeepNothing(t *testing.T) {
	c := newCannedClient(t, 3, "q")
	want := answer(mustQuery(t, c, "q"))
	for range 3 {
		st := mustQuery(t, c, "q")
		wantLent(t, c, 1, 0)
		if got := answer(st); got != want {
			t.Fatalf("answer\n%s\nwant\n%s", got, want)
		}
		if st.rd != nil {
			t.Fatal("an ended stream still holds its readers")
		}
		wantLent(t, c, 0, 0)
	}
}

// TestLendOverlappingStreams: a stream that ends while others are open
// leaves its readers for the next stream to borrow, and once every
// stream has ended the client keeps none.
func TestLendOverlappingStreams(t *testing.T) {
	c := newCannedClient(t, 3, "a", "b", "c")
	a, b := mustQuery(t, c, "a"), mustQuery(t, c, "b")
	wantLent(t, c, 2, 0)
	answer(b)
	wantLent(t, c, 1, 1)
	cs := mustQuery(t, c, "c") // borrows b's readers
	wantLent(t, c, 2, 0)
	answer(cs)
	wantLent(t, c, 1, 1)
	answer(a)
	wantLent(t, c, 0, 0)
}

// TestLendFailedConnectReturnsReaders: a Query whose connect fails gives
// back the readers it borrowed.
func TestLendFailedConnectReturnsReaders(t *testing.T) {
	c := newCannedClient(t, 1, "a")
	if _, err := c.Query(context.Background(), "refused"); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("err = %v, want ErrBadQuery", err)
	}
	wantLent(t, c, 0, 0)
	a := mustQuery(t, c, "a")
	if _, err := c.Query(context.Background(), "refused"); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("err = %v, want ErrBadQuery", err)
	}
	wantLent(t, c, 1, 1) // kept for the next stream while a is open
	a.Close()
	wantLent(t, c, 0, 0)
}

// TestLendClosedTwiceReturnsOnce: a stream closed mid-answer gives its
// readers back, and closing it again gives back nothing more.
func TestLendClosedTwiceReturnsOnce(t *testing.T) {
	c := newCannedClient(t, 3, "a", "b")
	a, b := mustQuery(t, c, "a"), mustQuery(t, c, "b")
	if !b.Next() {
		t.Fatal(b.Err())
	}
	b.Close()
	wantLent(t, c, 1, 1)
	b.Close()
	if b.Next() {
		t.Fatal("a closed stream delivered")
	}
	wantLent(t, c, 1, 1)
	a.Close()
	wantLent(t, c, 0, 0)
}

// TestLendConcurrentStreams: goroutines streaming distinct answers at once
// over one Client each read the answer a lone stream reads, so no two
// open streams share readers (under -race, a shared set is also a race).
func TestLendConcurrentStreams(t *testing.T) {
	const workers, rounds, rows = 6, 4, 40
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var qr wire.QueryRequest
		readJSON(r, &qr)
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("Content-Encoding", "gzip")
		f := w.(http.Flusher)
		writeGzipLines(w, answerLines(qr.Query, rows), f.Flush)
	}))
	defer ts.Close()
	c := newTestClient(t, ts.URL, 1)

	lone := make([]string, workers)
	for i := range lone {
		lone[i] = answer(mustQuery(t, c, fmt.Sprintf("q%d", i)))
		if strings.HasPrefix(lone[i], "error") {
			t.Fatal(lone[i])
		}
	}
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				st, err := c.Query(context.Background(), fmt.Sprintf("q%d", i))
				if err != nil {
					got[i] = append(got[i], "error: "+err.Error())
					continue
				}
				got[i] = append(got[i], answer(st))
			}
		}()
	}
	wg.Wait()
	for i, answers := range got {
		if len(answers) != rounds {
			t.Fatalf("q%d: %d answers, want %d", i, len(answers), rounds)
		}
		for _, a := range answers {
			if a != lone[i] {
				t.Errorf("q%d: a concurrent answer differs from the lone one:\n%s\nwant\n%s", i, a, lone[i])
			}
		}
	}
	wantLent(t, c, 0, 0)
}

// TestLendOverlappingStreamAllocatedBytes: a gzip stream that starts while
// another is open borrows the readers an earlier overlapping stream gave
// back, so it allocates no decompressor and no buffers: under 8 KiB (4.7
// measured; a gzip.Reader Reset onto the bare body makes itself a 4 KiB
// buffer, 8.8), and at least 40 KiB less than a lone stream, which pays
// the 32 KiB window, the decompressor's tables and two 4 KiB buffers.
func TestLendOverlappingStreamAllocatedBytes(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c := newCannedClient(t, 2, "held", "q")
	run := func() {
		st, err := c.Query(context.Background(), "q")
		if err != nil {
			t.Fatal(err)
		}
		for st.Next() {
		}
		st.Close()
	}
	const runs = 20
	kbPerQuery := func() float64 {
		run()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	}
	lone := kbPerQuery()
	held := mustQuery(t, c, "held")
	overlapping := kbPerQuery()
	held.Close()
	t.Logf("a lone stream allocates %.1f KiB, one overlapping another %.1f", lone, overlapping)
	if lone-overlapping < 40 || overlapping > 8 {
		t.Errorf("an overlapping stream allocates %.1f KiB, a lone one %.1f: it did not borrow the readers", overlapping, lone)
	}
}

func mustQuery(t *testing.T, c *Client, q string) *Stream {
	t.Helper()
	st, err := c.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return st
}
