package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webbase/internal/core"
	"webbase/internal/relation"
	"webbase/internal/sites"
	"webbase/internal/ur"
	"webbase/internal/web"
	"webbase/internal/wire"
)

// The lending rule: a stream borrows its codec from the server when it
// starts and gives it back exactly once, when handleQuery returns; the
// server keeps at most keptCodecs idle, each without a buffer of more than
// keptCodecBytes.

// t1Queries are distinct T1 lookups, one per (make, model) of the
// catalogue, in name order.
func t1Queries(n int) []string {
	makes := sites.Makes()
	sort.Strings(makes)
	var qs []string
	for _, mk := range makes {
		for _, md := range sites.Catalog[mk] {
			qs = append(qs, fmt.Sprintf("SELECT Make, Model, Year, Price WHERE Make='%s' AND Model='%s'", mk, md))
		}
	}
	return qs[:n]
}

// serve runs one request against h and returns what it wrote. Unlike
// record it fails no test, so goroutines may call it.
func serve(h http.Handler, query string, header map[string]string) *flushRecorder {
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(query))
	for k, v := range header {
		req.Header.Set(k, v)
	}
	rec := &flushRecorder{header: make(http.Header)}
	h.ServeHTTP(rec, req)
	return rec
}

// beforeTrailer is what a recorded stream wrote up to the flush before
// its last: every byte but the trailer's, whose stats carry timings.
func beforeTrailer(t *testing.T, rec *flushRecorder) []byte {
	t.Helper()
	if len(rec.flushes) < 2 {
		t.Fatalf("the stream flushed %d times, want a delivery and the trailer at least", len(rec.flushes))
	}
	return rec.body.Bytes()[:rec.flushes[len(rec.flushes)-2]]
}

// idleCodecs returns the codecs s keeps idle, failing t if one is kept
// twice: a codec given back twice.
func idleCodecs(t *testing.T, s *Server) []*codec {
	t.Helper()
	idle, _ := s.codecs.Idle()
	for i, c := range idle {
		if slices.Index(idle, c) != i {
			t.Fatalf("codec %d of %d idle is kept twice", i, len(idle))
		}
	}
	return idle
}

// wantIdle fails t unless s keeps exactly the codecs want idle.
func wantIdle(t *testing.T, s *Server, after string, want []*codec) {
	t.Helper()
	if got := idleCodecs(t, s); !slices.Equal(got, want) {
		t.Fatalf("after %s the server keeps %d codecs idle (%p), want %d (%p)", after, len(got), got, len(want), want)
	}
}

// TestLendConcurrentStreamsMatchLoneRuns: six goroutines stream distinct
// answers over one server, compressed and plain, on codecs earlier streams
// gave back; every byte each writes before its trailer is what the same
// stream writes alone. Two streams sharing a codec is a race here.
func TestLendConcurrentStreamsMatchLoneRuns(t *testing.T) {
	s := newServer(t, core.Config{Workers: 2}, Config{})
	h := s.Handler()
	queries := t1Queries(6)
	headers := make([]map[string]string, len(queries))
	lone := make([][]byte, len(queries))
	for i, q := range queries {
		headers[i] = map[string]string{"X-Request-Id": fmt.Sprintf("r-lend-%d", i)}
		if i%2 == 0 {
			headers[i]["Accept-Encoding"] = "gzip"
		}
		lone[i] = beforeTrailer(t, serve(h, q, headers[i]))
	}
	for round := range 3 {
		recs := make([]*flushRecorder, len(queries))
		var wg sync.WaitGroup
		for i, q := range queries {
			wg.Add(1)
			go func() {
				defer wg.Done()
				recs[i] = serve(h, q, headers[i])
			}()
		}
		wg.Wait()
		for i, rec := range recs {
			if got := beforeTrailer(t, rec); !bytes.Equal(got, lone[i]) {
				t.Errorf("round %d, stream %d (%s): %d bytes before the trailer differ from the lone run's %d",
					round, i, headers[i]["Accept-Encoding"], len(got), len(lone[i]))
			}
		}
	}
	if n := len(idleCodecs(t, s)); n == 0 || n > len(queries) {
		t.Errorf("%d codecs idle after streams of at most %d at once", n, len(queries))
	}
}

// TestLendPreStreamFailuresBorrowNothing: a request refused before its
// stream starts — a bad query, an admission shed, a spent quota — leaves
// the idle codecs as they were.
func TestLendPreStreamFailuresBorrowNothing(t *testing.T) {
	world := sites.BuildWorld().Server
	var hold atomic.Bool
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	fetcher := web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		if hold.Load() {
			select {
			case started <- struct{}{}:
			default:
			}
			<-release
		}
		return world.Fetch(req)
	})
	s := newServer(t, core.Config{Fetcher: fetcher}, Config{
		MaxInFlight: 1,
		Tenants: []Tenant{
			{Key: "alicekey", Name: "alice"},
			{Key: "bobkey", Name: "bob", Quota: 1, Window: time.Hour},
		},
	})
	h := s.Handler()
	alice := map[string]string{"Authorization": "Bearer alicekey", "Accept-Encoding": "gzip"}
	q := t1Queries(1)[0]
	serve(h, q, alice)
	idle := idleCodecs(t, s)
	if len(idle) != 1 {
		t.Fatalf("one stream left %d codecs idle, want 1", len(idle))
	}

	if rec := serve(h, "SELECT Nonsense WHERE", alice); !strings.Contains(rec.body.String(), wire.CodeBadQuery) {
		t.Fatalf("bad query answered %q", rec.body.String())
	}
	wantIdle(t, s, "a bad query", idle)

	bob := map[string]string{"Authorization": "Bearer bobkey", "Accept-Encoding": "gzip"}
	serve(h, "SELECT Nonsense WHERE", bob) // spends bob's quota
	if rec := serve(h, q, bob); !strings.Contains(rec.body.String(), wire.CodeQuotaExhausted) {
		t.Fatalf("over-quota query answered %q", rec.body.String())
	}
	wantIdle(t, s, "a spent quota", idle)

	hold.Store(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		serve(h, t1Queries(2)[1], alice) // a cold query: its first fetch holds the only slot
	}()
	<-started
	if rec := serve(h, q, alice); !strings.Contains(rec.body.String(), wire.CodeShedded) {
		t.Fatalf("query beyond the admission gate answered %q", rec.body.String())
	}
	wantIdle(t, s, "an admission shed", idle)
	hold.Store(false)
	close(release)
	<-done
	wantIdle(t, s, "the held stream", idle)
}

// TestLendBrokenAndKeepaliveStreamsGiveBackOnce: a stream an unencodable
// delivery ends, and a stream the keepalive ticker writes into, each give
// their codec back once, so each of two such streams in turn leaves the
// one codec idle.
func TestLendBrokenAndKeepaliveStreamsGiveBackOnce(t *testing.T) {
	world := sites.BuildWorld().Server
	phone := regexp.MustCompile(`\(\d{3}\) \d{3}-\d{4}`)
	nanContacts := web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		resp, err := world.Fetch(req)
		if err != nil || !resp.OK() {
			return resp, err
		}
		return &web.Response{Status: resp.Status, URL: resp.URL, Body: phone.ReplaceAll(resp.Body, []byte("NaN"))}, nil
	})
	slow := slowFetcher{inner: sites.BuildWorld().Server, delay: 5 * time.Millisecond}
	t1 := t1Queries(24)
	for _, tc := range []struct {
		name    string
		s       *Server
		queries []string // one a stream; each cold, so that each keepalive stream has gaps to fill
		want    string   // in the decompressed stream
	}{
		{"broken", newServer(t, core.Config{Fetcher: nanContacts, Workers: 4}, Config{}), []string{wideQuery, wideQuery}, `"code":"internal"`},
		{"keepalive", newServer(t, core.Config{Fetcher: slow, Workers: 1}, Config{KeepaliveInterval: time.Millisecond}),
			[]string{t1[0], t1[len(t1)-1]}, `"event":"keepalive"`},
	} {
		var first []*codec
		for run, q := range tc.queries {
			rec := serve(tc.s.Handler(), q, map[string]string{"Accept-Encoding": "gzip"})
			if plain := inflate(t, rec.body.Bytes()); !bytes.Contains(plain, []byte(tc.want)) {
				t.Fatalf("%s stream %d carries no %s:\n%s", tc.name, run, tc.want, plain)
			}
			idle := idleCodecs(t, tc.s)
			if len(idle) != 1 || (first != nil && idle[0] != first[0]) {
				t.Fatalf("%s stream %d left %d codecs idle (%p), want the one codec (%p)", tc.name, run, len(idle), idle, first)
			}
			first = idle
		}
	}
}

// TestLendIdleCodecsBounded: sixteen streams each hold a codec at once,
// and the server keeps keptCodecs of them when they end.
func TestLendIdleCodecsBounded(t *testing.T) {
	const streams = 16
	s := newServer(t, core.Config{Workers: 2}, Config{})
	h := s.Handler()
	var arrived sync.WaitGroup
	arrived.Add(streams)
	all := make(chan struct{})
	queries := t1Queries(streams)
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := &barrierRecorder{flushRecorder: flushRecorder{header: make(http.Header)}, arrived: &arrived, all: all}
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(queries[i])))
		}()
	}
	ready := make(chan struct{})
	go func() { arrived.Wait(); close(ready) }()
	select {
	case <-ready:
	case <-time.After(30 * time.Second):
		close(all)
		wg.Wait()
		t.Fatal("the streams did not all start within 30s")
	}
	close(all) // every stream holds a codec now
	wg.Wait()
	if n := len(idleCodecs(t, s)); n != keptCodecs {
		t.Errorf("%d streams that overlapped left %d codecs idle, want the bound, %d", streams, n, keptCodecs)
	}
}

// barrierRecorder holds its stream's first flush until every stream of
// the test has made its own: by then each has started, and holds a codec.
type barrierRecorder struct {
	flushRecorder
	once    sync.Once
	arrived *sync.WaitGroup
	all     chan struct{}
}

func (b *barrierRecorder) Flush() {
	b.flushRecorder.Flush()
	b.once.Do(func() {
		b.arrived.Done()
		<-b.all
	})
}

// TestLendLongLineKeepsNoOversizedBuffer: a 200 KiB delivery grows the
// line buffer, the history and the output buffer past keptCodecBytes; the
// codec the stream gives back keeps none of them.
func TestLendLongLineKeepsNoOversizedBuffer(t *testing.T) {
	cs := newCodecs()
	rec := &flushRecorder{header: make(http.Header)}
	sw := newStreamWriter(rec, cs, "r-long", "SELECT V", []string{"V"}, "tok", -1, true)
	long := relation.Tuple{relation.String(strings.Repeat("webbase ", 25<<10))}
	sw.writeDelivery(ur.ObjectDelivery{Seq: 1, Object: []string{"o"}, Tuples: []relation.Tuple{long}})
	sw.writeErrorEvent(wire.ErrorBody{Code: wire.CodeInternal, Status: 500, Message: "end", RequestID: "r-long"})
	c := sw.codec
	if cap(c.line) < 200<<10 || cap(c.gz.hist) <= keptCodecBytes || 4*cap(c.gz.table) < keptCodecBytes {
		t.Fatalf("the stream grew a line of capacity %d, a history of %d and a table of %d entries; want 200 KiB, over %d bytes and the most entries",
			cap(c.line), cap(c.gz.hist), cap(c.gz.table), keptCodecBytes)
	}
	sw.end()
	if idle, _ := cs.Idle(); len(idle) != 1 || idle[0] != c {
		t.Fatalf("the server keeps %d codecs idle, want the stream's", len(idle))
	}
	for name, size := range map[string]int{
		"line": cap(c.line), "history": cap(c.gz.hist), "output": cap(c.gz.out), "table": 4 * cap(c.gz.table),
	} {
		if size > keptCodecBytes {
			t.Errorf("the idle codec keeps a %s buffer of %d bytes, bound %d", name, size, keptCodecBytes)
		}
	}
	if c.gz.w != nil {
		t.Error("the idle codec still holds the response")
	}
	if plain := inflate(t, rec.body.Bytes()); !bytes.Contains(plain, []byte(`"message":"end"`)) {
		t.Errorf("the long stream did not end with its error event")
	}
}

// TestLendKeepaliveAfterEndWritesNothing: a keepalive tick that lands after
// end, whatever the order of end's two steps, finds no codec. It writes
// nothing, and the codec end gave back stays idle as it was.
func TestLendKeepaliveAfterEndWritesNothing(t *testing.T) {
	for _, useGzip := range []bool{false, true} {
		cs := newCodecs()
		rec := &flushRecorder{header: make(http.Header)}
		sw := newStreamWriter(rec, cs, "r-ka", "SELECT V", []string{"V"}, "tok", -1, useGzip)
		sw.keepalive()
		if rec.body.Len() != 0 || len(rec.flushes) != 0 {
			t.Fatalf("gzip %v: a keepalive before the start wrote %d bytes", useGzip, rec.body.Len())
		}
		sw.mu.Lock()
		sw.startLocked()
		sw.mu.Unlock()
		sw.keepalive()
		if len(rec.flushes) != 1 {
			t.Fatalf("gzip %v: a keepalive on the started stream flushed %d times, want once", useGzip, len(rec.flushes))
		}
		sw.end()
		kept, _ := cs.Idle()
		if len(kept) != 1 {
			t.Fatalf("gzip %v: %d codecs idle after end, want the stream's", useGzip, len(kept))
		}
		idle := kept[0]
		line := slices.Clone(idle.line)
		n := rec.body.Len()
		sw.keepalive()
		if rec.body.Len() != n || len(rec.flushes) != 1 {
			t.Errorf("gzip %v: a keepalive after end wrote %d bytes and flushed %d times", useGzip, rec.body.Len()-n, len(rec.flushes)-1)
		}
		if kept, _ = cs.Idle(); len(kept) != 1 || kept[0] != idle || !bytes.Equal(idle.line, line) {
			t.Errorf("gzip %v: a keepalive after end changed the idle codecs", useGzip)
		}
	}
}
