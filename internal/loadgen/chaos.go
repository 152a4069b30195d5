package loadgen

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"webbase/client"
)

// Connection-chaos mode: the resilience half of the load harness. Where
// Run measures a healthy service, RunChaos attacks the transport — a
// chaos RoundTripper randomly severs in-flight streams, sometimes on an
// event boundary, sometimes mid-line — and drives every query through
// the resumable client, which reconnects and resumes. The harness then
// audits the one property resumability promises: each stream's delivered
// tuple multiset is exactly the uninterrupted answer — zero duplicates,
// zero missing — no matter how many times its connection died.

// ChaosLoad configures one chaos run.
type ChaosLoad struct {
	// Clients is the number of concurrent chaos clients; PerClient the
	// streams each runs sequentially.
	Clients   int `json:"clients"`
	PerClient int `json:"per_client"`
	// Query is the streamed query text.
	Query string `json:"-"`
	// APIKey authenticates the streams (empty on an open server).
	APIKey string `json:"-"`
	// KillProb is the probability a given connection attempt gets its
	// stream severed (0 defaults to 0.7). Severed offsets grow over the
	// run, so every stream makes progress and finishes.
	KillProb float64 `json:"kill_prob"`
	// Seed drives the kill schedule deterministically.
	Seed int64 `json:"seed"`
}

// StreamAudit is what driving a batch of streams through the resumable
// client established: how many finished, what finishing cost, and
// whether every finished stream's tuple multiset was exactly the
// uninterrupted answer.
type StreamAudit struct {
	Completed       int     `json:"completed"`
	Failed          int     `json:"failed"`
	Resumes         int     `json:"resumes"`          // reconnect attempts the client spent
	DuplicateTuples int     `json:"duplicate_tuples"` // tuples delivered more than once within a stream
	MissingTuples   int     `json:"missing_tuples"`   // expected tuples a stream never delivered
	P50Ms           float64 `json:"p50_ms"`           // completed-stream latency, kills and backoff included
	P99Ms           float64 `json:"p99_ms"`
}

// ChaosReport aggregates a chaos run. A run proves resumability exactly
// when DuplicateTuples == MissingTuples == Failed == 0 while Kills > 0.
type ChaosReport struct {
	Load    ChaosLoad `json:"load"`
	Streams int       `json:"streams"`
	Kills   int64     `json:"kills"` // connections severed by the chaos transport
	StreamAudit
}

// RunChaos executes load.Clients*load.PerClient streams against baseURL
// through the resumable client over a connection-killing transport, and
// audits every completed stream's tuples against the uninterrupted
// answer fetched once up front.
func RunChaos(baseURL string, load ChaosLoad) (*ChaosReport, error) {
	if load.Clients <= 0 || load.PerClient <= 0 || load.Query == "" {
		return nil, fmt.Errorf("loadgen: bad chaos load %+v", load)
	}
	if load.KillProb == 0 {
		load.KillProb = 0.7
	}
	ctx := context.Background()

	// Ground truth: one uninterrupted stream over a plain transport.
	calm, err := client.New(client.Config{BaseURL: baseURL, APIKey: load.APIKey})
	if err != nil {
		return nil, err
	}
	want, _, err := collect(ctx, calm, load.Query)
	if err != nil {
		return nil, fmt.Errorf("loadgen: ground-truth stream: %w", err)
	}

	chaos := &chaosTransport{
		base: &http.Transport{MaxIdleConnsPerHost: 256},
		rng:  rand.New(rand.NewSource(load.Seed)),
		prob: load.KillProb,
	}
	defer chaos.base.(*http.Transport).CloseIdleConnections()
	victim, err := client.New(client.Config{
		BaseURL:     baseURL,
		APIKey:      load.APIKey,
		HTTPClient:  &http.Client{Transport: chaos},
		MaxAttempts: 100, // the chaos schedule guarantees progress, not luck
		BackoffBase: time.Millisecond,
		BackoffMax:  8 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}

	rep := &ChaosReport{Load: load, Streams: load.Clients * load.PerClient}
	rep.StreamAudit = driveStreams(ctx, victim, load.Query, rep.Streams, load.Clients, want, nil)
	rep.Kills = chaos.kills.Load()
	return rep, nil
}

// driveStreams runs streams streams of query through c, workers at a
// time, and audits every completed one against want. each, when non-nil,
// sees every stream as it ends — nil for one whose Query failed — one
// call at a time.
func driveStreams(ctx context.Context, c *client.Client, query string, streams, workers int,
	want map[string]int, each func(*client.Stream)) StreamAudit {
	var (
		mu        sync.Mutex
		audit     StreamAudit
		latencies []time.Duration
		wg        sync.WaitGroup
	)
	work := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range work {
				start := time.Now()
				got, st, err := collect(ctx, c, query)
				elapsed := time.Since(start)
				mu.Lock()
				if st != nil {
					audit.Resumes += st.Attempts() - 1
				}
				if err != nil {
					audit.Failed++
				} else {
					audit.Completed++
					latencies = append(latencies, elapsed)
					dup, miss := diffMultiset(got, want)
					audit.DuplicateTuples += dup
					audit.MissingTuples += miss
				}
				if each != nil {
					each(st)
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < streams; i++ {
		work <- struct{}{}
	}
	close(work)
	wg.Wait()
	audit.P50Ms = percentileMs(latencies, 50)
	audit.P99Ms = percentileMs(latencies, 99)
	return audit
}

// collect drains one stream into a tuple multiset, restart-aware: when
// Restarts() advances between deliveries, everything accumulated so far
// belongs to an answer the fleet refused to resume — the client started
// over from seq zero, so the audit must too. The stream comes back
// closed, for its counters; nil when Query itself failed.
func collect(ctx context.Context, c *client.Client, query string) (map[string]int, *client.Stream, error) {
	st, err := c.Query(ctx, query)
	if err != nil {
		return nil, nil, err
	}
	defer st.Close()
	got := map[string]int{}
	restarts := 0
	for st.Next() {
		if r := st.Restarts(); r > restarts {
			restarts = r
			got = map[string]int{}
		}
		for _, t := range st.Delivery().Tuples {
			got[fmt.Sprint(t)]++
		}
	}
	return got, st, st.Err()
}

// diffMultiset reports how many tuple deliveries exceeded (dup) or fell
// short of (miss) the expected multiset.
func diffMultiset(got, want map[string]int) (dup, miss int) {
	for k, w := range want {
		if g := got[k]; g < w {
			miss += w - g
		}
	}
	for k, g := range got {
		w := want[k]
		if g > w {
			dup += g - w
		}
	}
	return dup, miss
}

// chaosTransport severs /query streams. Each kill truncates the response
// after a byte allowance drawn around a floor that grows with every
// response served, so retried attempts always get further than their
// predecessors and every stream eventually completes — deterministic
// progress, not probabilistic hope. About half the kills cut mid-line to
// exercise the client's truncated-event path.
type chaosTransport struct {
	base  http.RoundTripper
	mu    sync.Mutex
	rng   *rand.Rand
	prob  float64
	seq   atomic.Int64
	kills atomic.Int64
}

func (t *chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err != nil || req.URL.Path != "/query" || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	n := t.seq.Add(1)
	t.mu.Lock()
	kill := t.rng.Float64() < t.prob
	allowance := int64(192) + n*96 + t.rng.Int63n(128)
	midLine := t.rng.Intn(2) == 0
	t.mu.Unlock()
	if !kill {
		return resp, nil
	}
	t.kills.Add(1)
	resp.Body = &killedBody{rc: resp.Body, remaining: allowance, midLine: midLine}
	return resp, nil
}

// killedBody passes remaining bytes through, then fails the read as a
// dropped connection would. midLine backs off a few bytes short of the
// cut so the last event line arrives truncated.
type killedBody struct {
	rc        io.ReadCloser
	remaining int64
	midLine   bool
}

func (k *killedBody) Read(p []byte) (int, error) {
	if k.remaining <= 0 {
		return 0, fmt.Errorf("loadgen: connection severed by chaos transport")
	}
	if int64(len(p)) > k.remaining {
		p = p[:k.remaining]
	}
	n, err := k.rc.Read(p)
	k.remaining -= int64(n)
	if k.remaining <= 0 && k.midLine && n > 3 {
		// Withhold the tail of the final chunk: the client sees a line
		// cut off mid-event.
		n -= 3
	}
	return n, err
}

func (k *killedBody) Close() error { return k.rc.Close() }
