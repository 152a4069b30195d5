package navcalc_test

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"webbase/internal/apartments"
	"webbase/internal/carmaps"
	"webbase/internal/htmlkit"
	"webbase/internal/navcalc"
	"webbase/internal/navmap"
	"webbase/internal/sites"
	"webbase/internal/web"
)

// updateFixtures re-records testdata/pages from the simulated sites and
// rewrites testdata/pageview.golden from whatever PageToObjects produces
// now. Only a change that means to alter the page view runs it.
var updateFixtures = flag.Bool("update", false, "re-record testdata/pages and rewrite testdata/pageview.golden")

const (
	pagesDir   = "testdata/pages"
	manifest   = "testdata/pages/MANIFEST"
	goldenFile = "testdata/pageview.golden"
)

// fixturePage is one recorded page: the body a site served and the URL it
// was served at (PageToObjects resolves links and form actions against it).
type fixturePage struct {
	name, url string
	body      []byte
}

// loadFixtures reads the recorded pages in MANIFEST order.
func loadFixtures(t testing.TB) []fixturePage {
	t.Helper()
	f, err := os.Open(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var pages []fixturePage
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, pageURL, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			t.Fatalf("malformed MANIFEST line %q", sc.Text())
		}
		body, err := os.ReadFile(filepath.Join(pagesDir, name+".html"))
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, fixturePage{name: name, url: pageURL, body: body})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(pages) == 0 {
		t.Fatal("no fixture pages")
	}
	return pages
}

// recorder keeps the first page seen of every page kind. A kind is a host,
// a path and whether the page carries a table: on the simulated sites a CGI
// path renders one template, or two when it answers with either a data page
// or a narrow-your-search form.
type recorder struct {
	next  web.Fetcher
	seen  map[string]bool
	pages []fixturePage
}

func (r *recorder) Fetch(req *web.Request) (*web.Response, error) {
	resp, err := r.next.Fetch(req)
	if err != nil || !resp.OK() {
		return resp, err
	}
	u, err := url.Parse(resp.URL)
	if err != nil {
		return resp, nil
	}
	kind := strings.Trim(u.Host+u.Path, "/")
	if bytes.Contains(resp.Body, []byte("<table")) {
		kind += "/data"
	}
	if !r.seen[kind] {
		r.seen[kind] = true
		name := strings.NewReplacer("/", "_", ".", "_").Replace(kind)
		r.pages = append(r.pages, fixturePage{name: name, url: resp.URL, body: resp.Body})
	}
	return resp, nil
}

// recordFixtures runs every navigation map of both domains against its
// simulated Web and returns one page of every kind the navigations touch.
func recordFixtures(t *testing.T) []fixturePage {
	t.Helper()
	run := func(rec *recorder, maps map[string]*navmap.Map, inputs map[string]string) {
		names := make([]string, 0, len(maps))
		for name := range maps {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			expr, err := navmap.Translate(maps[name])
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			rel, _, err := expr.Execute(rec, inputs)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if name == "newsday" {
				// newsdayCarFeatures, next in order, is entered at a Url
				// newsday extracted.
				u, _ := rel.Get(rel.Tuples()[0], "Url")
				inputs["Url"] = u.Str()
			}
		}
	}
	rec := &recorder{seen: make(map[string]bool)}
	rec.next = sites.BuildWorld().Server
	run(rec, carmaps.AllMaps(), map[string]string{
		"Make": "ford", "Model": "escort", "Year": "1994", "Condition": "good",
		"ZipCode": "11201", "Duration": "36",
	})
	rec.next = apartments.BuildWorld().Server
	run(rec, apartments.Maps(), map[string]string{"Borough": "brooklyn", "Bedrooms": "2"})
	return rec.pages
}

// dumpPageView renders everything the store's read API exposes about one
// page: the object ids, each object's classes and every attribute with its
// value, the members of each Figure-3 class, the Section-7 counts and the
// type check.
func dumpPageView(t *testing.T, sb *strings.Builder, p fixturePage) {
	st, pageID := navcalc.PageToObjects(htmlkit.Parse(p.body), p.url)
	fmt.Fprintf(sb, "== %s %s\n", p.name, p.url)
	attrs := 0
	for _, id := range st.Objects() {
		o := st.Get(id)
		attrs += o.AttrCount()
		fmt.Fprintf(sb, "%s : %s\n", id, strings.Join(o.Classes(), ", "))
		for _, a := range o.FunctAttrs() {
			v, _ := o.Get(a)
			fmt.Fprintf(sb, "  %s -> %s\n", a, v)
		}
		for _, a := range o.SetAttrs() {
			vals := make([]string, 0, len(o.GetAll(a)))
			for _, v := range o.GetAll(a) {
				vals = append(vals, v.String())
			}
			fmt.Fprintf(sb, "  %s ->> {%s}\n", a, strings.Join(vals, ", "))
		}
	}
	for _, class := range []string{"web_page", "data_page", "action", "follow_link", "submit_form", "link", "form", "attrValPair"} {
		fmt.Fprintf(sb, "members(%s) = %v\n", class, st.Members(class))
	}
	fmt.Fprintf(sb, "page = %s, objects = %d, attributes = %d\n\n", pageID, st.Len(), attrs)
	if errs := st.TypeErrors(); errs != nil {
		t.Errorf("%s: TypeErrors() = %v, want nil", p.name, errs)
	}
}

// TestPageViewGolden pins PageToObjects byte for byte on one recorded page
// of every page kind of the 13 used-car maps and the 4 apartment maps.
func TestPageViewGolden(t *testing.T) {
	if *updateFixtures {
		pages := recordFixtures(t)
		old, _ := filepath.Glob(filepath.Join(pagesDir, "*.html"))
		for _, f := range old {
			if err := os.Remove(f); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.MkdirAll(pagesDir, 0o755); err != nil {
			t.Fatal(err)
		}
		var mf strings.Builder
		for _, p := range pages {
			fmt.Fprintf(&mf, "%s\t%s\n", p.name, p.url)
			if err := os.WriteFile(filepath.Join(pagesDir, p.name+".html"), p.body, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(manifest, []byte(mf.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	for _, p := range loadFixtures(t) {
		dumpPageView(t, &sb, p)
	}
	if *updateFixtures {
		if err := os.WriteFile(goldenFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("page view differs from %s at line %d:\n got: %s\nwant: %s", goldenFile, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("page view differs from %s in length: got %d lines, want %d", goldenFile, len(gl), len(wl))
	}
}

// TestPageViewsBuiltConcurrently: every page's store shares the one
// declaration of the Figure 3 signatures, and parallel maximal objects load
// pages at the same time. Building views from several goroutines at once
// gives each the same view as building it alone. Run with -race.
func TestPageViewsBuiltConcurrently(t *testing.T) {
	pages := loadFixtures(t)
	var want strings.Builder
	for _, p := range pages {
		dumpPageView(t, &want, p)
	}
	var wg sync.WaitGroup
	got := make([]strings.Builder, 8)
	for g := range got {
		wg.Add(1)
		go func(sb *strings.Builder) {
			defer wg.Done()
			for _, p := range pages {
				dumpPageView(t, sb, p)
			}
		}(&got[g])
	}
	wg.Wait()
	for g := range got {
		if got[g].String() != want.String() {
			t.Errorf("goroutine %d built a different page view", g)
		}
	}
}
