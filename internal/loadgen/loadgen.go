// Package loadgen drives streaming query load against webbase query
// servers and audits what every stream delivered. It is the measurement
// half of the networked service — the same role the in-process bench
// harness plays for the core layer, but exercised end to end through
// HTTP, streaming, tenant admission, the resumable client and, when a
// scenario asks for it, severed connections and killed replicas.
//
// One Scenario says where the streams go, who sends them, what breaks
// and which key fetches the ground truth; Run executes it. Every stream
// runs through the resumable client and is audited against one
// uninterrupted answer as an exactly-once tuple multiset, so a run
// proves the paper's answer — the union over maximal objects — reached
// the caller whole, whatever the network did on the way.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"webbase/client"
)

// Scenario is one declarative load run.
type Scenario struct {
	// Where: the base URLs of running servers, or — when Binary is set —
	// Replicas webbased processes booted from Binary (at least 2) and
	// killed and rebooted on the schedule in fleet.go.
	Endpoints []string
	Binary    string
	Replicas  int
	// Who: the tenants sending streams, all at once.
	Tenants []Tenant
	// What breaks: the probability a /query response is severed
	// mid-stream, and the seed of that schedule. 0 means no connection
	// chaos.
	KillProb float64
	Seed     int64
	// Ground truth: the key of the one uninterrupted stream every other
	// stream is audited against. It runs first, so it also warms the
	// first server's page cache.
	GroundKey string
	// Query is the streamed query text.
	Query string
}

// Tenant is one tenant's share of the load: Streams streams under Key,
// Concurrency at a time.
type Tenant struct {
	Name        string
	Key         string
	Streams     int
	Concurrency int
}

// TenantReport is one tenant's outcome. A stream is served when it
// completes, shed when it ends in a 429 (quota exhausted, tenant
// saturated or shed by the admission gate) and failed on any other
// error. The tuple counts audit served streams; the latency percentiles
// are over them too, from Query to the end of the stream, kills and
// backoff included.
type TenantReport struct {
	Name            string
	Streams         int
	Served          int
	Shed            int
	Failed          int
	Resumes         int // reconnect attempts the client spent
	Failovers       int // reconnects that switched replica
	Restarts        int // restart-from-zero after a refused resume
	Keepalives      int // keepalive events consumed
	DuplicateTuples int // tuples a stream delivered more than once
	MissingTuples   int // expected tuples a stream never delivered
	P50Ms           float64
	P99Ms           float64
}

// Report is a run's outcome: one row per tenant in Scenario order, and
// the faults the run injected.
type Report struct {
	Tenants         []TenantReport
	ConnKills       int64 // connections severed by the chaos transport
	ReplicaKills    int   // replica processes SIGKILLed
	ReplicaRestarts int   // replica processes booted again on their old port
}

func (s Scenario) validate() error {
	switch {
	case s.Query == "":
		return errors.New("loadgen: empty query")
	case len(s.Tenants) == 0:
		return errors.New("loadgen: no tenants")
	case s.Binary == "" && len(s.Endpoints) == 0:
		return errors.New("loadgen: no endpoints and no binary to boot")
	case s.Binary != "" && (len(s.Endpoints) > 0 || s.Replicas < 2):
		return fmt.Errorf("loadgen: booting %d replicas: want at least 2 and no endpoints", s.Replicas)
	}
	for _, t := range s.Tenants {
		if t.Name == "" || t.Streams <= 0 || t.Concurrency <= 0 {
			return fmt.Errorf("loadgen: bad tenant %+v", t)
		}
	}
	return nil
}

// Run executes s: it boots the replicas if s asks for them, fetches the
// ground truth, then runs every tenant's streams at once through one
// client per tenant over one shared transport, and audits each stream.
func Run(s Scenario) (*Report, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	ctx := context.Background()
	endpoints := s.Endpoints
	var stall time.Duration
	var replicas fleet
	if s.Binary != "" {
		var err error
		if replicas, err = bootFleet(s.Binary, s.Replicas); err != nil {
			return nil, err
		}
		defer replicas.kill()
		endpoints = replicas.endpoints()
		stall = 10 * time.Second // replicas emit keepalives, so this only fires on true stalls
	}
	base := &http.Transport{MaxIdleConnsPerHost: 256}
	defer base.CloseIdleConnections()
	newClient := func(key string, rt http.RoundTripper) (*client.Client, error) {
		return client.New(client.Config{
			Endpoints:    endpoints,
			APIKey:       key,
			HTTPClient:   &http.Client{Transport: rt},
			MaxAttempts:  200, // the chaos schedule guarantees progress, not luck
			BackoffBase:  time.Millisecond,
			BackoffMax:   16 * time.Millisecond,
			StallTimeout: stall,
		})
	}

	// Ground truth: one uninterrupted stream over the plain transport.
	calm, err := newClient(s.GroundKey, base)
	if err != nil {
		return nil, err
	}
	want, _, err := collect(ctx, calm, s.Query)
	if err != nil {
		return nil, fmt.Errorf("loadgen: ground-truth stream: %w", err)
	}

	chaos := &chaosTransport{base: base, rng: rand.New(rand.NewSource(s.Seed)), prob: s.KillProb}
	clients := make([]*client.Client, len(s.Tenants))
	for i, t := range s.Tenants {
		if clients[i], err = newClient(t.Key, chaos); err != nil {
			return nil, err
		}
	}

	rep := &Report{Tenants: make([]TenantReport, len(s.Tenants))}
	var total int64
	for _, t := range s.Tenants {
		total += int64(t.Streams)
	}
	var ended atomic.Int64
	stop := make(chan struct{})
	ctlDone := make(chan error, 1)
	go func() { ctlDone <- replicas.schedule(total, &ended, stop, rep) }()
	var wg sync.WaitGroup
	for i, t := range s.Tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep.Tenants[i] = driveStreams(ctx, clients[i], s.Query, t, want, &ended)
		}()
	}
	wg.Wait()
	close(stop)
	ctlErr := <-ctlDone

	rep.ConnKills = chaos.kills.Load()
	if ctlErr != nil {
		return rep, fmt.Errorf("loadgen: replica schedule: %w", ctlErr)
	}
	return rep, nil
}

// driveStreams runs t's streams of query through c, t.Concurrency at a
// time, audits every served one against want, and counts each stream in
// ended as it ends.
func driveStreams(ctx context.Context, c *client.Client, query string, t Tenant,
	want map[string]int, ended *atomic.Int64) TenantReport {
	var (
		mu        sync.Mutex
		row       = TenantReport{Name: t.Name, Streams: t.Streams}
		latencies []time.Duration
		wg        sync.WaitGroup
	)
	work := make(chan struct{})
	for w := 0; w < t.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range work {
				start := time.Now()
				got, st, err := collect(ctx, c, query)
				elapsed := time.Since(start)
				mu.Lock()
				if st != nil {
					row.Resumes += st.Attempts() - 1
					row.Failovers += st.Failovers()
					row.Restarts += st.Restarts()
					row.Keepalives += st.Keepalives()
				}
				switch {
				case err == nil:
					row.Served++
					latencies = append(latencies, elapsed)
					dup, miss := diffMultiset(got, want)
					row.DuplicateTuples += dup
					row.MissingTuples += miss
				case errors.Is(err, client.ErrQuotaExhausted) || errors.Is(err, client.ErrTenantSaturated) ||
					errors.Is(err, client.ErrShedded):
					row.Shed++
				default:
					row.Failed++
				}
				mu.Unlock()
				ended.Add(1)
			}
		}()
	}
	for i := 0; i < t.Streams; i++ {
		work <- struct{}{}
	}
	close(work)
	wg.Wait()
	row.P50Ms = percentileMs(latencies, 50)
	row.P99Ms = percentileMs(latencies, 99)
	return row
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

// percentileMs is the nearest-rank percentile of a latency sample, in
// milliseconds. 0 for an empty sample.
func percentileMs(sample []time.Duration, p int) float64 {
	if len(sample) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), sample...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := (p*len(sorted) + 99) / 100 // ceil(p/100 * n)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return float64(sorted[rank-1]) / float64(time.Millisecond)
}
