package trace

import (
	"strings"
	"sync"
	"testing"
)

// The families this package's tests record to: the whole table of the
// test binary, so a page written here lists exactly these.
var (
	testRequests = NewCounter("test_requests_total", "Requests the test made.")
	testCorrupt  = NewCounterVec("test_corrupt_total", "Corrupt records, by tier.", "tier", "pages", "open")
	testTenant   = NewCounterVec("test_tenant_total", "Requests, by tenant.", "tenant")
	testPeak     = NewGauge("test_peak", "Highest value seen.\nSecond line.")
	testPages    = NewHistogram("test_pages", "Pages per request.", 1, 5, 10)
)

func page(t *testing.T, r *Registry) (string, map[string]float64) {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(b.String())
	if err != nil {
		t.Fatalf("page does not parse back: %v\n%s", err, b.String())
	}
	return b.String(), samples
}

// TestFreshRegistryPage pins the exposition format byte for byte: every
// declared series is on a fresh registry's page, at 0.
func TestFreshRegistryPage(t *testing.T) {
	r := NewRegistry()
	testTenant.Series(r, "bob")
	testTenant.Series(r, `al"ice`)
	got, _ := page(t, r)
	want := `# HELP test_corrupt_total Corrupt records, by tier.
# TYPE test_corrupt_total counter
test_corrupt_total 0
test_corrupt_total{tier="pages"} 0
test_corrupt_total{tier="open"} 0
# HELP test_pages Pages per request.
# TYPE test_pages histogram
test_pages_bucket{le="1"} 0
test_pages_bucket{le="5"} 0
test_pages_bucket{le="10"} 0
test_pages_bucket{le="+Inf"} 0
test_pages_sum 0
test_pages_count 0
# HELP test_peak Highest value seen.\nSecond line.
# TYPE test_peak gauge
test_peak 0
# HELP test_requests_total Requests the test made.
# TYPE test_requests_total counter
test_requests_total 0
# HELP test_tenant_total Requests, by tenant.
# TYPE test_tenant_total counter
test_tenant_total 0
test_tenant_total{tenant="al\"ice"} 0
test_tenant_total{tenant="bob"} 0
`
	if got != want {
		t.Errorf("fresh page:\n%s\nwant:\n%s", got, want)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	testRequests.Add(r, 2)
	testRequests.Add(r, 3)
	testPeak.Set(r, 7)
	testPeak.SetMax(r, 3) // lower: no-op
	testPeak.SetMax(r, 9)
	_, got := page(t, r)
	if got["test_requests_total"] != 5 || got["test_peak"] != 9 {
		t.Errorf("counter = %v, gauge = %v; want 5 and 9", got["test_requests_total"], got["test_peak"])
	}
	if v := r.Counter("test_requests_total").Value(); v != 5 {
		t.Errorf("Counter read %d, want 5", v)
	}
}

// TestLabelledAddFeedsTotal: one Add on a labelled family moves the
// value's series and the total; the total alone moves no label.
func TestLabelledAddFeedsTotal(t *testing.T) {
	r := NewRegistry()
	testCorrupt.Add(r, 1, 2)
	testCorrupt.Add(r, 0, 1)
	testCorrupt.Total(r).Add(4)
	alice := testTenant.Series(r, "alice")
	if testTenant.Series(r, "alice") != alice {
		t.Fatal("an open value resolved twice got two series")
	}
	alice.Add(3)
	_, snap := page(t, r)
	for series, want := range map[string]float64{
		"test_corrupt_total":                7,
		`test_corrupt_total{tier="pages"}`:  1,
		`test_corrupt_total{tier="open"}`:   2,
		"test_tenant_total":                 3,
		`test_tenant_total{tenant="alice"}`: 3,
	} {
		if snap[series] != want {
			t.Errorf("%s = %v, want %v", series, snap[series], want)
		}
	}
	if _, ok := snap[`test_tenant_total{tenant="absent"}`]; ok {
		t.Error("an open value nobody resolved has a series")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	for _, v := range []float64{0, 1, 2, 7, 100} {
		testPages.Observe(r, v)
	}
	// Buckets: ≤1: {0,1}; (1,5]: {2}; (5,10]: {7}; overflow: {100}.
	_, got := page(t, r)
	for series, want := range map[string]float64{
		`test_pages_bucket{le="1"}`:    2,
		`test_pages_bucket{le="5"}`:    3,
		`test_pages_bucket{le="10"}`:   4,
		`test_pages_bucket{le="+Inf"}`: 5,
		"test_pages_sum":               110,
		"test_pages_count":             5,
	} {
		if got[series] != want {
			t.Errorf("%s = %v, want %v", series, got[series], want)
		}
	}
}

// TestNilRegistryRecordsNothing: recording to no registry is a no-op, so
// a component built without one needs no check of its own.
func TestNilRegistryRecordsNothing(t *testing.T) {
	testRequests.Add(nil, 1)
	testCorrupt.Add(nil, 0, 1)
	testCorrupt.Total(nil).Add(1)
	testTenant.Series(nil, "alice").Add(1)
	testPeak.Set(nil, 1)
	testPeak.SetMax(nil, 1)
	testPages.Observe(nil, 1)
}

// TestCounterNeverCreates: reading by name finds declared series,
// labelled ones included, and panics on any other name.
func TestCounterNeverCreates(t *testing.T) {
	r := NewRegistry()
	testCorrupt.Add(r, 1, 1)
	if v := r.Counter(`test_corrupt_total{tier="open"}`).Value(); v != 1 {
		t.Errorf("labelled read = %d, want 1", v)
	}
	for _, name := range []string{"test_undeclared_total", `test_tenant_total{tenant="nobody"}`, "test_peak"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Counter(%q) did not panic", name)
				}
			}()
			r.Counter(name)
		}()
	}
	_, got := page(t, r)
	_, fresh := page(t, NewRegistry())
	if _, ok := got[`test_tenant_total{tenant="nobody"}`]; ok || len(got) != len(fresh) {
		t.Errorf("a read created a series: %d series, a fresh registry %d", len(got), len(fresh))
	}
}

func TestDeclaringAfterARegistryPanics(t *testing.T) {
	NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("a family declared after a registry was made")
		}
	}()
	NewCounter("test_late_total", "Too late.")
}

// TestParseTextRejects: each page WriteText could not have written is
// refused.
func TestParseTextRejects(t *testing.T) {
	good, _ := page(t, NewRegistry())
	for name, bad := range map[string]string{
		"family twice":     good + "# HELP test_peak Again.\n# TYPE test_peak gauge\ntest_peak 0\n",
		"undeclared":       strings.Replace(good, "test_peak", "test_other", -1),
		"family missing":   strings.Replace(good, "# HELP test_peak Highest value seen.\\nSecond line.\n# TYPE test_peak gauge\ntest_peak 0\n", "", 1),
		"no TYPE":          strings.Replace(good, "# TYPE test_peak gauge\n", "", 1),
		"no help text":     strings.Replace(good, "Pages per request.", "", 1),
		"sample elsewhere": strings.Replace(good, "test_peak 0\n", "test_peak 0\ntest_requests_total 0\n", 1),
		"falling bucket":   strings.Replace(good, `test_pages_bucket{le="10"} 0`, `test_pages_bucket{le="10"} -1`, 1),
		"no +Inf":          strings.Replace(good, "test_pages_bucket{le=\"+Inf\"} 0\n", "", 1),
		"count off":        strings.Replace(good, "test_pages_count 0", "test_pages_count 1", 1),
		"no count":         strings.Replace(good, "test_pages_count 0\n", "", 1),
		"repeated series":  strings.Replace(good, "test_peak 0\n", "test_peak 0\ntest_peak 0\n", 1),
		"bad value":        strings.Replace(good, "test_peak 0", "test_peak zero", 1),
	} {
		if bad == good {
			t.Fatalf("%s: the mutation did not apply", name)
		}
		if _, err := ParseText(bad); err == nil {
			t.Errorf("%s: parsed\n%s", name, bad)
		}
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			alice := testTenant.Series(r, "alice")
			for j := 0; j < 200; j++ {
				testRequests.Add(r, 1)
				alice.Add(1)
				testPeak.SetMax(r, int64(j))
				testPages.Observe(r, float64(j))
			}
		}()
	}
	wg.Wait()
	_, got := page(t, r)
	if got["test_requests_total"] != 1600 || got[`test_tenant_total{tenant="alice"}`] != 1600 ||
		got["test_peak"] != 199 || got["test_pages_count"] != 1600 {
		t.Errorf("after 8×200 records: %v", got)
	}
}
