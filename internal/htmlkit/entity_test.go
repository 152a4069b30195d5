package htmlkit

import (
	"sync"
	"testing"

	"webbase/internal/race"
)

// escapeCorpus is every text run and attribute value of the recorded pages
// (decoded, so escaping them is what a renderer would do), plus strings
// made only of what the escapers act on.
func escapeCorpus(t *testing.T) []string {
	t.Helper()
	corpus := []string{"", "plain words", `&<>"'`, `&amp;`, `a&b<c>d"e`, `"<&>"`, "\x00&\xff<", "é&…>"}
	for _, p := range fixturePages(t) {
		Parse(p).Walk(func(n *Node) bool {
			if n.Type == TextNode {
				corpus = append(corpus, n.Data)
			}
			for _, a := range n.Attrs {
				corpus = append(corpus, a.Value)
			}
			return true
		})
	}
	return corpus
}

// TestEscapersMatchReference: the package-level escapers give the bytes the
// per-call ones gave, and decoding undoes escaping.
func TestEscapersMatchReference(t *testing.T) {
	corpus := escapeCorpus(t)
	if len(corpus) < 1000 {
		t.Fatalf("only %d strings in the recorded pages", len(corpus))
	}
	for _, s := range corpus {
		checkEscapers(t, s)
	}
}

func checkEscapers(t *testing.T, s string) {
	t.Helper()
	text, attr := EscapeText(s), EscapeAttr(s)
	if want := refEscapeText(s); text != want {
		t.Fatalf("EscapeText(%q) = %q, reference %q", s, text, want)
	}
	if want := refEscapeAttr(s); attr != want {
		t.Fatalf("EscapeAttr(%q) = %q, reference %q", s, attr, want)
	}
	if got := DecodeEntities(text); got != s {
		t.Fatalf("DecodeEntities(EscapeText(%q)) = %q", s, got)
	}
	if got := DecodeEntities(attr); got != s {
		t.Fatalf("DecodeEntities(EscapeAttr(%q)) = %q", s, got)
	}
}

// FuzzEscapers searches beyond the recorded pages for a string the shared
// escapers and the per-call ones disagree on, or that does not survive
// escape-then-decode.
func FuzzEscapers(f *testing.F) {
	for _, s := range []string{"", "plain", `&<>"`, "&amp;lt;", "a&#65;b", `x="y"`, "&&;<<;>>", "\xff&\xfe"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { checkEscapers(t, s) })
}

// TestEscapePlainTextAllocatesNothing: a cell with nothing to escape, which
// is nearly every cell, is returned as it is.
func TestEscapePlainTextAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = EscapeText("plain words")
		_ = EscapeAttr("/cgi-bin/search?make=ford")
	}); n != 0 {
		t.Errorf("escaping strings with nothing to escape allocates %.0f times, want 0", n)
	}
}

// TestEscapersConcurrentUse: the escapers are shared by every goroutine
// that renders a page; run under -race.
func TestEscapersConcurrentUse(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := EscapeText("a<b>&c"); got != "a&lt;b&gt;&amp;c" {
					t.Errorf("EscapeText = %q", got)
					return
				}
				if got := EscapeAttr(`x="1&2"`); got != "x=&quot;1&amp;2&quot;" {
					t.Errorf("EscapeAttr = %q", got)
					return
				}
			}
		}()
	}
	wg.Wait()
}
