package loadgen

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
)

// Connection chaos: every tenant's streams go through a chaos
// RoundTripper that severs an in-flight stream with the Scenario's
// KillProb — sometimes on an event boundary, sometimes mid-line — and the
// resumable client reconnects and resumes. The audit then checks the one
// property resumability promises: each stream's delivered tuple multiset
// is exactly the uninterrupted answer — zero duplicates, zero missing —
// no matter how many times its connection died.

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
