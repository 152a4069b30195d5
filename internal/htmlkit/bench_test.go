package htmlkit

import (
	"os"
	"strings"
	"testing"
)

// The per-visit page work, layer by layer, over the pages recorded from
// every page kind of the simulated sites: what a warm query pays for each
// page it reads. Run with
// `go test -run '^$' -bench Pages -benchmem ./internal/htmlkit`; MB/s is
// over the pages' bytes.

// BenchmarkParsePages is Parse over every recorded page.
func BenchmarkParsePages(b *testing.B) {
	_, pages := recordedPages(b)
	b.SetBytes(totalBytes(pages))
	b.ReportAllocs()
	for b.Loop() {
		for _, p := range pages {
			Parse(p)
		}
	}
}

// BenchmarkScanPages is Scan over every recorded page, parsed beforehand:
// the title, links and forms navigation reads, each address resolved
// against the URL the page was served at.
func BenchmarkScanPages(b *testing.B) {
	urls, pages := recordedPages(b)
	docs := make([]*Node, len(pages))
	for i, p := range pages {
		docs[i] = Parse(p)
	}
	b.SetBytes(totalBytes(pages))
	b.ReportAllocs()
	for b.Loop() {
		for i, d := range docs {
			Scan(d, urls[i])
		}
	}
}

// recordedPages reads the recorded pages in the manifest's order, each
// with the URL it was served at.
func recordedPages(t testing.TB) (urls []string, pages [][]byte) {
	t.Helper()
	const dir = "../navcalc/testdata/pages/"
	m, err := os.ReadFile(dir + "MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(m)), "\n") {
		name, u, _ := strings.Cut(line, "\t")
		body, err := os.ReadFile(dir + name + ".html")
		if err != nil {
			t.Fatal(err)
		}
		urls, pages = append(urls, u), append(pages, body)
	}
	return urls, pages
}

func totalBytes(pages [][]byte) int64 {
	var n int64
	for _, p := range pages {
		n += int64(len(p))
	}
	return n
}
