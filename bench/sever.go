package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"sync"
)

// severTransport cuts every stream exactly once: the first attempt of each
// request id loses its connection right after the event with seq=1 has
// been fully delivered to the client; the second attempt (the client's
// resume, same X-Request-Id) passes through untouched.
type severTransport struct {
	inner http.RoundTripper
	mu    sync.Mutex
	cut   map[string]bool // request ids whose first attempt was already cut
}

func newSeverTransport(inner http.RoundTripper) *severTransport {
	return &severTransport{inner: inner, cut: make(map[string]bool)}
}

func (s *severTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := s.inner.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	rid := req.Header.Get("X-Request-Id")
	s.mu.Lock()
	second := s.cut[rid]
	if second {
		delete(s.cut, rid)
	} else {
		s.cut[rid] = true
	}
	s.mu.Unlock()
	if !second {
		resp.Body = &severBody{inner: resp.Body}
	}
	return resp, nil
}

// syncMarker ends every gzip.Writer.Flush: an empty stored deflate block.
// The server flushes once per event, so each event's compressed bytes end
// with one.
var syncMarker = []byte{0x00, 0x00, 0xff, 0xff}

// severBody passes the compressed stream through until the second event
// (meta is seq=0, the first delivery seq=1) is complete, then fails the
// next read. The four marker bytes can also occur by chance inside
// compressed data, so each candidate is confirmed by inflating the prefix
// and counting whole lines — a few kilobytes, twice per stream.
type severBody struct {
	inner   io.ReadCloser
	seen    []byte // compressed bytes handed to the client so far
	severed bool
}

func (b *severBody) Read(p []byte) (int, error) {
	if b.severed {
		return 0, io.ErrUnexpectedEOF
	}
	n, err := b.inner.Read(p)
	from := len(b.seen) - len(syncMarker) + 1
	if from < 0 {
		from = 0
	}
	b.seen = append(b.seen, p[:n]...)
	for {
		i := bytes.Index(b.seen[from:], syncMarker)
		if i < 0 {
			return n, err
		}
		end := from + i + len(syncMarker)
		if wholeLines(b.seen[:end]) >= 2 {
			b.severed = true
			return n - (len(b.seen) - end), nil
		}
		from = end
	}
}

func (b *severBody) Close() error { return b.inner.Close() }

// wholeLines inflates a gzip prefix that ends on a flush boundary and
// counts the complete lines in it; a prefix that does not end one reads 0.
func wholeLines(prefix []byte) int {
	zr, err := gzip.NewReader(bytes.NewReader(prefix))
	if err != nil {
		return 0
	}
	plain, _ := io.ReadAll(zr) // always ends in an unexpected EOF: the stream was cut
	if len(plain) == 0 || plain[len(plain)-1] != '\n' {
		return 0
	}
	return bytes.Count(plain, []byte{'\n'})
}
