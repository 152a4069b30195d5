package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"webbase/internal/apartments"
	"webbase/internal/core"
	"webbase/internal/sites"
	"webbase/internal/web"
	"webbase/internal/wire"
)

// carQuery is the paper's headline query: no ORDER BY, so the answer
// streams incrementally, one event per maximal object.
const carQuery = "SELECT Make, Model, Year, Price, BBPrice WHERE Make = 'jaguar' AND Year >= 1993 " +
	"AND Safety = 'good' AND Condition = 'good' AND Price < BBPrice"

// apartmentsDomain assembles the second application domain, proving the
// server is domain-independent.
var apartmentsDomain = core.Domain{
	Registry: apartments.Registry,
	Logical:  apartments.Logical,
	UR:       apartments.UR,
}

// newCarServer builds a usedcars webbase (default fetcher: the simulated
// world) and serves it over httptest.
func newCarServer(t *testing.T, cfg core.Config, scfg Config) (*httptest.Server, *core.Webbase) {
	t.Helper()
	if cfg.Fetcher == nil {
		cfg.Fetcher = sites.BuildWorld().Server
	}
	wb, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg.System = wb
	srv, err := New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, wb
}

// postQuery POSTs a query body, optionally with an API key.
func postQuery(t *testing.T, url, key, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/query", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// decodeLines parses an NDJSON body into generic JSON objects, failing
// on any malformed line.
func decodeLines(t *testing.T, body io.Reader) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("malformed NDJSON line %q: %v", sc.Text(), err)
		}
		out = append(out, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// streamedTuples concatenates every tuples event's rows, in stream order.
func streamedTuples(lines []map[string]any) []any {
	var out []any
	for _, l := range lines {
		if l["event"] == "tuples" {
			out = append(out, l["tuples"].([]any)...)
		}
	}
	return out
}

// mustJSON marshals for byte-level comparisons, canonicalized through a
// decode/encode round trip so struct field order and map key order
// compare equal.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var generic any
	if err := json.Unmarshal(b, &generic); err != nil {
		t.Fatal(err)
	}
	b, err = json.Marshal(generic)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestStreamGoldenOrdering pins the golden NDJSON stream of the headline
// query: meta, one tuples event per maximal object in plan order with
// the exact per-object contribution counts, then the trailer. Workers=8
// on purpose — the plan-order gate must make the stream independent of
// scheduling.
func TestStreamGoldenOrdering(t *testing.T) {
	ts, _ := newCarServer(t, core.Config{Workers: 8}, Config{})
	resp := postQuery(t, ts.URL, "", carQuery)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	lines := decodeLines(t, resp.Body)
	if len(lines) != 4 {
		t.Fatalf("got %d events, want 4 (meta, 2 objects, trailer): %v", len(lines), lines)
	}
	events := make([]string, len(lines))
	for i, l := range lines {
		events[i] = l["event"].(string)
	}
	if got, want := fmt.Sprint(events), "[meta tuples tuples trailer]"; got != want {
		t.Fatalf("event sequence = %s, want %s", got, want)
	}
	if got := mustJSON(t, lines[0]["schema"]); got != `["Make","Model","Year","Price","BBPrice"]` {
		t.Errorf("meta schema = %s", got)
	}
	type objGold struct {
		index  float64
		object string
		count  float64
	}
	golds := []objGold{
		{0, `["BluePrice","Classifieds","Safety"]`, 40},
		{1, `["BluePrice","Dealers","Safety"]`, 35},
	}
	for i, g := range golds {
		l := lines[i+1]
		if l["index"] != g.index || mustJSON(t, l["object"]) != g.object || l["count"] != g.count {
			t.Errorf("object event %d = index %v object %s count %v, want %v %s %v",
				i, l["index"], mustJSON(t, l["object"]), l["count"], g.index, g.object, g.count)
		}
		if n := len(l["tuples"].([]any)); float64(n) != g.count {
			t.Errorf("object event %d carries %d tuples, count says %v", i, n, g.count)
		}
	}
	if first := mustJSON(t, lines[1]["tuples"].([]any)[0]); first != `["jaguar","xj6",1996,27007,34120]` {
		t.Errorf("first streamed tuple = %s", first)
	}
	trailer := lines[3]
	if trailer["tuples"] != float64(75) || trailer["objects"] != float64(2) {
		t.Errorf("trailer tuples=%v objects=%v, want 75 and 2", trailer["tuples"], trailer["objects"])
	}
	if trailer["stats"] == nil {
		t.Error("trailer missing stats")
	}
}

// TestStreamUnionEqualsInProcess asserts the acceptance-criterion
// equivalence on both fixture domains: the union of the streamed tuples
// is exactly the answer an in-process twin computes — including for an
// ORDER BY query, where the stream degenerates to one buffered delivery.
func TestStreamUnionEqualsInProcess(t *testing.T) {
	cases := []struct {
		name     string
		assemble func(cfg core.Config) (*core.Webbase, error)
		query    string
		buffered bool
	}{
		{"usedcars", func(cfg core.Config) (*core.Webbase, error) {
			cfg.Fetcher = sites.BuildWorld().Server
			return core.New(cfg)
		}, carQuery, false},
		{"apartments", func(cfg core.Config) (*core.Webbase, error) {
			cfg.Fetcher = apartments.BuildWorld().Server
			return core.NewDomain(cfg, apartmentsDomain)
		}, "SELECT Neighborhood, Rent, Fee WHERE Borough = 'queens' AND Bedrooms = 1 AND Fee < 120", false},
		{"apartments-orderby", func(cfg core.Config) (*core.Webbase, error) {
			cfg.Fetcher = apartments.BuildWorld().Server
			return core.NewDomain(cfg, apartmentsDomain)
		}, "SELECT Neighborhood, Rent, MedianRent, CrimeRate WHERE Borough = 'brooklyn' AND Bedrooms = 2 " +
			"AND Rent < MedianRent AND CrimeRate <= 5 ORDER BY Rent", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			served, err := tc.assemble(core.Config{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			srv, err := New(Config{System: served})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			resp := postQuery(t, ts.URL, "", tc.query)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d", resp.StatusCode)
			}
			lines := decodeLines(t, resp.Body)

			twin, err := tc.assemble(core.Config{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := twin.QueryString(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			want := mustJSON(t, wire.EncodeTuples(res.Relation.Tuples()))
			got := mustJSON(t, streamedTuples(lines))
			if got != want {
				t.Errorf("streamed union != in-process answer\nstream:     %s\nin-process: %s", got, want)
			}
			if tc.buffered {
				var ev map[string]any
				for _, l := range lines {
					if l["event"] == "tuples" {
						if ev != nil {
							t.Fatal("ORDER BY query streamed more than one tuples event")
						}
						ev = l
					}
				}
				if ev == nil || ev["buffered"] != true || ev["index"] != float64(-1) {
					t.Errorf("ORDER BY query should deliver one buffered event with index -1, got %v", ev)
				}
			}
		})
	}
}

// downNewsday refuses connections to the newsday classifieds host and
// passes everything else through to a fresh simulated world.
func downNewsday() web.Fetcher {
	world := sites.BuildWorld()
	return web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		if web.HostOf(req.URL) == sites.NewsdayHost {
			return nil, fmt.Errorf("host %s: connection refused", sites.NewsdayHost)
		}
		return world.Server.Fetch(req)
	})
}

// slowClassifieds delays both classifieds hosts so a Config.Deadline
// budget expires mid-object.
func slowClassifieds(delay time.Duration) web.Fetcher {
	world := sites.BuildWorld()
	slow := map[string]bool{sites.NewsdayHost: true, sites.NYTimesHost: true}
	return web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		if slow[web.HostOf(req.URL)] {
			time.Sleep(delay)
		}
		return world.Server.Fetch(req)
	})
}

// envelope decodes a JSON error envelope, failing if the body is not
// exactly that shape.
func envelope(t *testing.T, resp *http.Response) wire.ErrorBody {
	t.Helper()
	var env wire.Envelope
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		t.Fatalf("response is not a JSON error envelope: %v", err)
	}
	if env.Error.Code == "" || env.Error.Status != resp.StatusCode || env.Error.Message == "" || env.Error.RequestID == "" {
		t.Fatalf("malformed envelope: %+v (http status %d)", env.Error, resp.StatusCode)
	}
	return env.Error
}

// TestStatusCodeMapping drives one request per taxonomy class and
// asserts the promised status code and machine-readable error code.
func TestStatusCodeMapping(t *testing.T) {
	cases := []struct {
		name   string
		cfg    core.Config
		scfg   Config
		key    string
		body   string
		status int
		code   string
	}{
		{name: "parse-error", body: "not a query", status: 400, code: "bad-query"},
		{name: "empty-body", body: "", status: 400, code: "bad-query"},
		{name: "truncated-json", body: `{"query": "SELECT`, status: 400, code: "bad-query"},
		{name: "invalid-utf8", body: "\xff\xfe\xfd", status: 400, code: "bad-query"},
		{name: "unknown-attribute", body: "SELECT Bogus", status: 400, code: "bad-query"},
		{name: "oversized-body", scfg: Config{MaxBodyBytes: 32},
			body: "SELECT Make WHERE " + strings.Repeat("x", 64), status: 413, code: "body-too-large"},
		{name: "unknown-key", scfg: Config{Tenants: []Tenant{{Key: "k", Name: "alice"}}},
			key: "wrong", body: carQuery, status: 401, code: "unauthorized"},
		{name: "strict-outage", cfg: core.Config{Fetcher: downNewsday(), Strict: true},
			body: carQuery, status: 502, code: "site-outage"},
		{name: "strict-deadline",
			cfg:  core.Config{Fetcher: slowClassifieds(400 * time.Millisecond), Strict: true, Deadline: 100 * time.Millisecond},
			body: carQuery, status: 504, code: "deadline"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts, _ := newCarServer(t, tc.cfg, tc.scfg)
			resp := postQuery(t, ts.URL, tc.key, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			if got := envelope(t, resp); got.Code != tc.code {
				t.Errorf("code = %q, want %q (message: %s)", got.Code, tc.code, got.Message)
			}
		})
	}
}

// TestQuotaExhausted exercises the tenant quota: requests beyond the
// window's budget shed with 429 before any work happens, and both
// outcomes land in /metrics under the tenant's label.
func TestQuotaExhausted(t *testing.T) {
	ts, _ := newCarServer(t, core.Config{}, Config{
		Tenants: []Tenant{{Key: "alicekey", Name: "alice", Quota: 2, Window: time.Hour}},
	})
	for i := 0; i < 2; i++ {
		resp := postQuery(t, ts.URL, "alicekey", carQuery)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status = %d", i, resp.StatusCode)
		}
		io.Copy(io.Discard, resp.Body)
	}
	resp := postQuery(t, ts.URL, "alicekey", carQuery)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status = %d, want 429", resp.StatusCode)
	}
	if got := envelope(t, resp); got.Code != "quota-exhausted" {
		t.Errorf("code = %q", got.Code)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	metrics, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		`counter server_queries_served_total{tenant="alice"} 2`,
		`counter server_queries_shed_total{tenant="alice"} 1`,
		`counter server_queries_total{tenant="alice"} 2`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q\n%s", want, metrics)
		}
	}
}

// TestAdmissionShedded exercises the other 429: the webbase's own
// admission gate is full (MaxInFlight=1, no queue) while a query holds
// the only slot, so the next request sheds with core.ErrShedded.
func TestAdmissionShedded(t *testing.T) {
	world := sites.BuildWorld()
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	blocking := web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return world.Server.Fetch(req)
	})
	ts, _ := newCarServer(t, core.Config{Fetcher: blocking, MaxInFlight: 1}, Config{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(carQuery))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-started // the first query owns the only admission slot

	resp := postQuery(t, ts.URL, "", carQuery)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := envelope(t, resp); got.Code != "shedded" {
		t.Errorf("code = %q, want shedded", got.Code)
	}
	close(release)
	wg.Wait()
}

// TestMidStreamOutageTrailer is the degradation acceptance case: with
// the newsday classifieds host down, the stream's 200 is already
// committed when the dead object's turn comes, so the object arrives as
// an unavailable event and the trailer's degradation report matches the
// in-process Result.Degradation byte for byte.
func TestMidStreamOutageTrailer(t *testing.T) {
	ts, _ := newCarServer(t, core.Config{Fetcher: downNewsday(), Workers: 1}, Config{})
	resp := postQuery(t, ts.URL, "", carQuery)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (non-strict degradation)", resp.StatusCode)
	}
	lines := decodeLines(t, resp.Body)
	events := make([]string, len(lines))
	for i, l := range lines {
		events[i] = l["event"].(string)
	}
	if got, want := fmt.Sprint(events), "[meta unavailable tuples trailer]"; got != want {
		t.Fatalf("event sequence = %s, want %s", got, want)
	}
	unav := lines[1]
	failure := unav["failure"].(map[string]any)
	if failure["Host"] != sites.NewsdayHost || failure["Kind"] != "outage" {
		t.Errorf("unavailable failure = %v", failure)
	}

	// The in-process twin: identical fresh configuration, same query.
	twin, err := core.New(core.Config{Fetcher: downNewsday(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := twin.QueryString(carQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degradation == nil {
		t.Fatal("twin did not degrade")
	}
	trailer := lines[len(lines)-1]
	deg, ok := trailer["degradation"].(map[string]any)
	if !ok {
		t.Fatalf("trailer has no degradation: %v", trailer)
	}
	if got, want := deg["report"].(string), res.Degradation.String(); got != want {
		t.Errorf("trailer degradation report differs from in-process rendering\nwire:       %q\nin-process: %q", got, want)
	}
	if got, want := mustJSON(t, deg["unavailable"]), mustJSON(t, res.Degradation.Unavailable); got != want {
		t.Errorf("trailer unavailable list differs\nwire:       %s\nin-process: %s", got, want)
	}
	if got, want := mustJSON(t, streamedTuples(lines)), mustJSON(t, wire.EncodeTuples(res.Relation.Tuples())); got != want {
		t.Errorf("degraded stream union differs from in-process answer")
	}
}

// TestHealthz covers both healthz states: ok on a healthy webbase, and
// degraded naming the quarantined site once drift is confirmed and the
// repair worker has exhausted its attempts against a dead host.
func TestHealthz(t *testing.T) {
	getHealthz := func(t *testing.T, url string) healthzResponse {
		t.Helper()
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz status = %d", resp.StatusCode)
		}
		var hz healthzResponse
		if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
			t.Fatal(err)
		}
		return hz
	}

	t.Run("ok", func(t *testing.T) {
		ts, _ := newCarServer(t, core.Config{}, Config{})
		if hz := getHealthz(t, ts.URL); hz.Status != "ok" || len(hz.Quarantined) != 0 {
			t.Errorf("healthz = %+v", hz)
		}
	})

	t.Run("degraded", func(t *testing.T) {
		// The repair worker fetches through the same down fetcher, so the
		// quarantined site cannot be repaired and stays quarantined.
		ts, wb := newCarServer(t, core.Config{
			Fetcher:           downNewsday(),
			MaxRepairAttempts: 1,
			RepairBackoff:     time.Millisecond,
		}, Config{})
		wb.SiteHealth().ReportDrift(sites.NewsdayHost)
		wb.SiteHealth().ReportDrift(sites.NewsdayHost) // threshold 2: quarantined
		wb.SiteHealth().Wait()                         // repair worker done (and failed)
		hz := getHealthz(t, ts.URL)
		if hz.Status != "degraded" || fmt.Sprint(hz.Quarantined) != "["+sites.NewsdayHost+"]" {
			t.Errorf("healthz = %+v, want degraded with %s quarantined", hz, sites.NewsdayHost)
		}
	})
}

// TestRequestID: a caller-supplied request ID is echoed on the response
// header and threaded through the stream's meta event.
func TestRequestID(t *testing.T) {
	ts, _ := newCarServer(t, core.Config{}, Config{})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/query", strings.NewReader(carQuery))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "trace-me-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "trace-me-7" {
		t.Errorf("response X-Request-Id = %q", got)
	}
	lines := decodeLines(t, resp.Body)
	if lines[0]["request_id"] != "trace-me-7" {
		t.Errorf("meta request_id = %v", lines[0]["request_id"])
	}
}

// TestJSONQueryBody: the {"query": ...} envelope form is equivalent to a
// raw text body.
func TestJSONQueryBody(t *testing.T) {
	ts, _ := newCarServer(t, core.Config{}, Config{})
	body, err := json.Marshal(wire.QueryRequest{Query: carQuery})
	if err != nil {
		t.Fatal(err)
	}
	resp := postQuery(t, ts.URL, "", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	lines := decodeLines(t, resp.Body)
	trailer := lines[len(lines)-1]
	if trailer["event"] != "trailer" || trailer["tuples"] != float64(75) {
		t.Errorf("trailer = %v", trailer)
	}
}
