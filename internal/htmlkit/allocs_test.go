package htmlkit

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"webbase/internal/race"
)

// fixturePages reads the pages recorded from every page kind of the
// simulated sites (see internal/navcalc/pageview_test.go).
func fixturePages(t *testing.T) [][]byte {
	t.Helper()
	files, err := filepath.Glob("../navcalc/testdata/pages/*.html")
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixture pages: %v", err)
	}
	pages := make([][]byte, len(files))
	for i, f := range files {
		if pages[i], err = os.ReadFile(f); err != nil {
			t.Fatal(err)
		}
	}
	return pages
}

// TestParseAllocs is the allocation ceiling for parsing: what Parse may
// allocate over the recorded pages, about 10% above what it does. A
// document costs its handle, its text and its two arrays — not an
// allocation per node, name, text run, value or child list.
func TestParseAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	pages := fixturePages(t)
	const ceiling = 207 // 188 when set; 200 while the text was built in a builder of its own and the decode buffer was the arrays'; 510 for the tree of slab-carved nodes and child lists; 2152 while each child list grew by append; 8638 before names were interned and nodes slab-allocated
	got := testing.AllocsPerRun(20, func() {
		for _, p := range pages {
			Parse(p)
		}
	})
	t.Logf("Parse: %.0f allocations over %d pages, %.1f a page (ceiling %d)", got, len(pages), got/float64(len(pages)), ceiling)
	if got > ceiling {
		t.Errorf("Parse allocates %.0f times over the %d recorded pages, ceiling %d", got, len(pages), ceiling)
	}
}

// TestParseAllocatedBytes is the ceiling on what a parsed page weighs: the
// bytes Parse allocates for a recorded page, on average, about 10% above
// what it does. The flat document is its text (at most the source), 16
// bytes a node and 16 an attribute.
func TestParseAllocatedBytes(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	pages := fixturePages(t)
	const ceiling = 1810 // 1648 when set; 1877 while the text kept the slack of a reservation of its source less three bytes a tag; 2613 for 28-byte nodes that held their parent and both a data and an attribute span; 7036 for the tree of 80-byte nodes with four pointers each
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	parseAll := func() {
		for _, p := range pages {
			Parse(p)
		}
	}
	parseAll() // warm up: nothing allocated once per process is counted
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		parseAll()
	}
	runtime.ReadMemStats(&after)
	perPage := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(len(pages))
	t.Logf("Parse: %.0f bytes a page over %d pages (ceiling %d)", perPage, len(pages), ceiling)
	if perPage > ceiling {
		t.Errorf("Parse allocates %.0f bytes a recorded page, ceiling %d", perPage, ceiling)
	}
}

// TestParseTextIsItsSize: a warm parse into lent arrays allocates one
// object a page, its text, and the text is its own size, not the size of a
// buffer it was built in: over the recorded pages and a page of character
// references, the bytes allocated are within 10% of the texts' lengths
// (the allocator's size classes round each up), where a text reserved at
// the source's length less three bytes a tag weighed about 1.5 times that.
func TestParseTextIsItsSize(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	pages := append(fixturePages(t), entityPage)
	arrays := make([]Arrays, len(pages))
	texts := 0
	parseAll := func() {
		for i, p := range pages {
			ParseInto(p, &arrays[i])
		}
	}
	parseAll() // warm up: the arrays and the lent buffers hold every page
	for i := range arrays {
		texts += len(arrays[i].d.text)
	}
	allocs := testing.AllocsPerRun(20, parseAll)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		parseAll()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%d pages: %.0f allocations, %.0f bytes for %d bytes of text (%.3f×)", len(pages), allocs, bytes, texts, bytes/float64(texts))
	if allocs != float64(len(pages)) {
		t.Errorf("a warm parse of %d pages allocates %.0f times, want one text a page", len(pages), allocs)
	}
	if bytes > 1.1*float64(texts) {
		t.Errorf("a warm parse allocates %.0f bytes for %d bytes of text, want within 10%%", bytes, texts)
	}
}

// TestLentParseBuffersEndWithTheirParse: the buffers a parse builds its
// text and decodes references in are lent for that parse alone. Parses on
// several goroutines at once, of pages larger than an idle buffer may be,
// each build the tree Parse would; none leaves a buffer lent, and the idle
// buffers are within their bounds in number and in bytes.
func TestLentParseBuffersEndWithTheirParse(t *testing.T) {
	large := bytes.Repeat([]byte(`<p title="a &amp; b">Fish &amp; Chips, &#8212; caf&eacute;</p>`), keptBufferBytes/32)
	pages := append(fixturePages(t), entityPage, large)
	want := make([]*document, len(pages))
	for i, p := range pages {
		want[i] = Parse(p).d
		sameTree(t, Node{want[i], 0}, refParse(p))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var a Arrays
			for k := range pages {
				i := (k + g*11) % len(pages)
				for _, d := range []*document{ParseInto(pages[i], &a).d, Parse(pages[i]).d} {
					if d.text != want[i].text || !slices.Equal(d.nodes, want[i].nodes) || !slices.Equal(d.attrs, want[i].attrs) {
						t.Errorf("goroutine %d: page %d parsed to another document than alone", g, i)
					}
				}
			}
		}()
	}
	wg.Wait()
	idle, lent := parseBuffers.Idle()
	if lent != 0 || len(idle) == 0 || len(idle) > keptBuffers {
		t.Fatalf("%d parse buffers lent and %d idle after every parse returned, want none lent and 1 to %d idle", lent, len(idle), keptBuffers)
	}
	for _, b := range idle {
		if cap(b.text) > keptBufferBytes || cap(b.decoded) > keptBufferBytes {
			t.Errorf("an idle buffer pair keeps %d and %d bytes, bound %d", cap(b.text), cap(b.decoded), keptBufferBytes)
		}
	}
}

// TestDocumentRecordsArePointerFree: the collector scans a document's
// handle, text and arrays, never the arrays' contents, because a node
// and an attribute hold only numbers. A pointer, slice, string, map or
// interface field in either record would put every node of every parsed
// page back in the collector's path.
func TestDocumentRecordsArePointerFree(t *testing.T) {
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		case reflect.Array:
			check(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				check(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		default:
			t.Errorf("%s is a %s: a document record must hold no pointer", path, typ.Kind())
		}
	}
	check("node", reflect.TypeOf(node{}))
	check("attr", reflect.TypeOf(attr{}))
}

// TestNodeValueSize: a node is 16 bytes — its type, tag, end and one span —
// because every byte of it is paid once per node of every parsed page.
func TestNodeValueSize(t *testing.T) {
	if n := unsafe.Sizeof(node{}); n != 16 {
		t.Errorf("a node is %d bytes, want 16", n)
	}
}

// entityPage is a page whose text and attributes decode character
// references.
var entityPage = []byte(`<p title="Fish &amp; Chips">Caf&eacute; &#8212; <a href="/menu?a=1&amp;b=2">Fish &amp; Chips &lt;daily&gt;</a></p>`)

// TestParseIntoLentArrays: a document parsed into lent arrays is the one
// Parse builds, whatever the arrays held before it; once the arrays hold
// every recorded page, a parse into them allocates its text and nothing
// else, not even to decode a character reference, which is decoded in a
// buffer lent for the parse; Reset keeps an array up to its bound and lets
// go of the text and of anything larger.
func TestParseIntoLentArrays(t *testing.T) {
	pages := append(fixturePages(t), entityPage)
	var a Arrays
	for _, p := range pages {
		sameTree(t, *ParseInto(p, &a), refParse(p))
	}
	for _, p := range pages { // the arrays now hold the largest page
		ParseInto(p, &a)
	}
	if !race.Enabled {
		lent := testing.AllocsPerRun(20, func() {
			for _, p := range pages {
				ParseInto(p, &a)
			}
		})
		heap := testing.AllocsPerRun(20, func() {
			for _, p := range pages {
				Parse(p)
			}
		})
		t.Logf("over %d pages: %.0f allocations into lent arrays, %.0f by Parse", len(pages), lent, heap)
		if saved := heap - lent; saved < float64(3*len(pages)) {
			t.Errorf("lent arrays saved %.0f allocations over %d pages, want the document and its two arrays a page", saved, len(pages))
		}
		if lent > float64(len(pages)) {
			t.Errorf("%.0f allocations into lent arrays over %d pages, want each page's text alone", lent, len(pages))
		}
	}
	idle, lent := parseBuffers.Idle()
	if lent != 0 || !slices.ContainsFunc(idle, func(b *buffers) bool { return cap(b.decoded) > 0 }) {
		t.Fatalf("%d parse buffers still lent, or no page decoded a character reference into an idle one", lent)
	}
	nodes, attrs := cap(a.d.nodes), cap(a.d.attrs)
	a.Reset(max(nodes, attrs))
	if a.d.text != "" || cap(a.d.nodes) != nodes || cap(a.d.attrs) != attrs {
		t.Errorf("Reset(%d) kept the text (%d bytes) or dropped an array: caps %d and %d, were %d and %d",
			max(nodes, attrs), len(a.d.text), cap(a.d.nodes), cap(a.d.attrs), nodes, attrs)
	}
	a.Reset(min(nodes, attrs) - 1)
	if cap(a.d.nodes) != 0 || cap(a.d.attrs) != 0 {
		t.Errorf("Reset(%d) kept arrays of %d and %d entries", min(nodes, attrs)-1, cap(a.d.nodes), cap(a.d.attrs))
	}
}
