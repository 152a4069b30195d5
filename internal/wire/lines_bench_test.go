package wire_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"webbase/internal/core"
	"webbase/internal/server"
	"webbase/internal/sites"
	"webbase/internal/wire"
)

// The two query shapes of the benchmark's decks: a T1 lookup streams two
// short tuples lines, the T3 headline query long ones and a meta line
// whose "<" is escaped.
const (
	t1Query = "SELECT Make, Model, Year, Price WHERE Make='ford' AND Model='escort'"
	t3Query = "SELECT Make, Model, Year, Price, BBPrice WHERE Make='ford' AND Year >= 1993 AND Safety='good' AND Condition='good' AND Price < BBPrice"
)

// recordStream serves query once, uncompressed, and returns its lines
// without their newlines.
func recordStream(b *testing.B, h http.Handler, query string) [][]byte {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(query)))
	if rec.Code != http.StatusOK {
		b.Fatalf("%s: status %d: %s", query, rec.Code, rec.Body)
	}
	return bytes.Split(bytes.TrimSuffix(rec.Body.Bytes(), []byte{'\n'}), []byte{'\n'})
}

// BenchmarkLines appends and decodes the lines of one recorded T1 stream
// and one T3 stream, kind by kind: MB/s over the kind's bytes in the
// stream, and allocations per stream.
func BenchmarkLines(b *testing.B) {
	wb, err := core.New(core.Config{Fetcher: sites.BuildWorld().Server})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(server.Config{System: wb})
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range []struct{ name, text string }{{"T1", t1Query}, {"T3", t3Query}} {
		lines := recordStream(b, srv.Handler(), q.text)
		var kinds []string
		byKind := map[string][][]byte{}
		events := map[string][]wire.Event{}
		for _, line := range lines {
			ev, err := wire.Decode(line)
			if err != nil {
				b.Fatal(err)
			}
			if byKind[ev.Kind] == nil {
				kinds = append(kinds, ev.Kind)
			}
			byKind[ev.Kind] = append(byKind[ev.Kind], line)
			events[ev.Kind] = append(events[ev.Kind], ev)
		}
		for _, kind := range kinds {
			size := 0
			for _, line := range byKind[kind] {
				size += len(line)
			}
			b.Run(q.name+"/encode/"+kind, func(b *testing.B) {
				b.SetBytes(int64(size))
				b.ReportAllocs()
				var buf []byte
				for b.Loop() {
					for _, ev := range events[kind] {
						if buf, err = wire.AppendEvent(buf[:0], ev); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
			b.Run(q.name+"/decode/"+kind, func(b *testing.B) {
				b.SetBytes(int64(size))
				b.ReportAllocs()
				for b.Loop() {
					for _, line := range byKind[kind] {
						if _, err := wire.Decode(line); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}
