package store

import (
	"encoding/json"
	"sync"
	"time"

	"webbase/internal/web"
)

// pagesTier is the tier name the page cache persists under.
const pagesTier = "pages"

// genMetaKey is the reserved record that carries the page tier's current
// generation (in the record's generation header; the payload is empty).
// Entries written under an older generation are ignored and garbage
// collected — the durable analogue of web.Cache dropping in-flight fills
// from before a Clear.
const genMetaKey = "!generation"

// pagePayload is the JSON body of a persisted page: the response plus the
// fetch timestamp, so MaxAge/AllowStale freshness semantics apply across
// restarts exactly as they do in memory.
type pagePayload struct {
	Status    int    `json:"status"`
	URL       string `json:"url"`
	Body      []byte `json:"body"`
	FetchedAt int64  `json:"fetchedAt"` // UnixNano
}

// pageJob is one queued write: a page store, or a flush marker (done
// non-nil, page zero).
type pageJob struct {
	key  string
	gen  uint64
	data []byte
	done chan struct{}
}

// PageTier is the disk-backed second tier behind web.Cache. Stores are
// asynchronous — a single writer goroutine drains a bounded queue, and
// when the queue is full the caller writes synchronously rather than
// dropping the page — so the fetch path never waits on disk in the common
// case but warmth is never silently lost. Loads are synchronous reads of
// one fingerprinted file.
//
// The tier keeps its own generation, persisted in a meta record:
// Invalidate (web.Cache.Clear, drift-triggered clears) bumps it, making
// every existing disk entry unreadable-by-design. If the meta record
// itself is corrupt at open, the whole tier is dropped — with no trusted
// generation, an old entry could otherwise resurrect a page a clear meant
// to discard.
//
// With a positive maxBytes the tier is size-bounded: it keeps an
// in-memory index of live entries (payload bytes, last-touch order,
// rebuilt from disk at open so the bound holds across restarts) and
// evicts the least-recently-touched entries whenever the total exceeds
// the bound. Evictions are counted in store_evicted_total{tier="pages"};
// an evicted page is simply a future cache miss, never an error.
type PageTier struct {
	store    *Store
	maxBytes int64

	mu     sync.RWMutex // guards gen and jobs-channel lifecycle (Close vs Save)
	gen    uint64
	jobs   chan pageJob
	closed bool

	// The LRU-ish eviction index (maxBytes > 0 only), under its own lock
	// so eviction bookkeeping never contends with the generation path.
	emu   sync.Mutex
	sizes map[string]int64
	touch map[string]uint64
	seq   uint64
	total int64

	wg sync.WaitGroup
}

// NewPageTier opens the page tier over s, restoring the persisted
// generation (or starting fresh — and clearing untrusted entries — when
// it is missing or corrupt). A positive maxBytes bounds the tier's total
// payload bytes: the live-entry index is rebuilt from disk (initial
// recency = fetch time, so the stalest pages evict first) and trimmed
// immediately, so a bound tightened between restarts is enforced at boot.
func NewPageTier(s *Store, maxBytes int64) *PageTier {
	t := &PageTier{store: s, maxBytes: maxBytes, jobs: make(chan pageJob, 256)}
	_, gen, err := s.Get(pagesTier, genMetaKey)
	switch {
	case err == nil:
		t.gen = gen
	case IsNotExist(err):
		// Fresh tier.
	default:
		// The generation bookkeeping itself is corrupt: without it, entries
		// from a pre-Clear era are indistinguishable from live ones. Drop
		// the tier and start cold. (Get already counted the corruption.)
		s.DeleteTier(pagesTier)
	}
	if t.maxBytes > 0 {
		t.sizes = make(map[string]int64)
		t.touch = make(map[string]uint64)
		t.rebuildIndex()
	}
	t.wg.Add(1)
	go t.writer()
	return t
}

// rebuildIndex scans the tier at open, accounting every live record so
// the size bound survives restarts. Recency is seeded from each page's
// fetch time — with no access history yet, oldest-fetched is the best
// guess at least-recently-useful — then entries are trimmed to the bound.
func (t *PageTier) rebuildIndex() {
	type seed struct {
		key       string
		size      int64
		fetchedAt int64
	}
	var seeds []seed
	t.store.Scan(pagesTier, func(key string, gen uint64, payload []byte) {
		if key == genMetaKey || gen != t.gen {
			return
		}
		var p pagePayload
		fetched := int64(0)
		if err := json.Unmarshal(payload, &p); err == nil {
			fetched = p.FetchedAt
		}
		seeds = append(seeds, seed{key: key, size: int64(len(payload)), fetchedAt: fetched})
	})
	// Touch in fetch order: the most recently fetched page ends up the most
	// recently touched, so boot-time eviction drops the stalest warmth.
	for i := 1; i < len(seeds); i++ {
		for j := i; j > 0 && seeds[j].fetchedAt < seeds[j-1].fetchedAt; j-- {
			seeds[j], seeds[j-1] = seeds[j-1], seeds[j]
		}
	}
	t.emu.Lock()
	defer t.emu.Unlock()
	for _, sd := range seeds {
		t.seq++
		t.sizes[sd.key] = sd.size
		t.touch[sd.key] = t.seq
		t.total += sd.size
	}
	t.evictLocked()
}

// account records one written entry and trims the tier to its bound. A
// no-op without a size bound.
func (t *PageTier) account(key string, size int64) {
	if t.maxBytes <= 0 {
		return
	}
	t.emu.Lock()
	defer t.emu.Unlock()
	if old, ok := t.sizes[key]; ok {
		t.total -= old
	}
	t.seq++
	t.sizes[key] = size
	t.touch[key] = t.seq
	t.total += size
	t.evictLocked()
}

// touchKey refreshes an entry's recency on a successful load.
func (t *PageTier) touchKey(key string) {
	if t.maxBytes <= 0 {
		return
	}
	t.emu.Lock()
	defer t.emu.Unlock()
	if _, ok := t.touch[key]; ok {
		t.seq++
		t.touch[key] = t.seq
	}
}

// evictLocked removes least-recently-touched entries until the tier is
// within its bound. Called with emu held. A single entry larger than the
// whole bound is evicted too — the bound is absolute.
func (t *PageTier) evictLocked() {
	for t.total > t.maxBytes && len(t.sizes) > 0 {
		victim, oldest := "", uint64(0)
		for k, at := range t.touch {
			if victim == "" || at < oldest {
				victim, oldest = k, at
			}
		}
		t.total -= t.sizes[victim]
		delete(t.sizes, victim)
		delete(t.touch, victim)
		t.store.Delete(pagesTier, victim)
		t.store.CountEvicted(pagesTier)
	}
}

// dropIndex forgets every accounted entry (the tier files themselves are
// handled by the caller).
func (t *PageTier) dropIndex() {
	if t.maxBytes <= 0 {
		return
	}
	t.emu.Lock()
	defer t.emu.Unlock()
	t.sizes = make(map[string]int64)
	t.touch = make(map[string]uint64)
	t.total = 0
}

func (t *PageTier) writer() {
	defer t.wg.Done()
	for job := range t.jobs {
		if job.done != nil {
			close(job.done)
			continue
		}
		if t.store.Put(pagesTier, job.key, job.gen, job.data) == nil {
			t.account(job.key, int64(len(job.data)))
		}
	}
}

// Generation reports the tier's durable clear-generation: bumped by every
// Invalidate and persisted, so — unlike the in-memory cache generation —
// it survives restarts. The consistency token a resumable stream carries
// prefers this counter when a state dir is configured, because a resumed
// query on a restarted process must still detect a pre-restart Clear.
func (t *PageTier) Generation() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.gen
}

// Load implements web.CacheTier: it returns the persisted page for key and
// its original fetch time. Misses, corruption and generation skew all
// come back as a plain miss — the memory tier re-fetches and re-stores.
func (t *PageTier) Load(key string) (*web.Response, time.Time, bool) {
	t.mu.RLock()
	gen := t.gen
	t.mu.RUnlock()
	payload, recGen, err := t.store.Get(pagesTier, key)
	if err != nil {
		if IsCorrupt(err) {
			t.store.Delete(pagesTier, key) // don't re-decode known-bad bytes
		}
		return nil, time.Time{}, false
	}
	if recGen != gen {
		// Written before an Invalidate: the clear's intent outlives the
		// process, so the entry is dead. Collect it.
		t.store.Delete(pagesTier, key)
		return nil, time.Time{}, false
	}
	var p pagePayload
	if err := json.Unmarshal(payload, &p); err != nil {
		t.store.CountCorrupt(pagesTier)
		t.store.Delete(pagesTier, key)
		return nil, time.Time{}, false
	}
	t.touchKey(key)
	return &web.Response{Status: p.Status, URL: p.URL, Body: p.Body},
		time.Unix(0, p.FetchedAt), true
}

// Store implements web.CacheTier: it persists a freshly fetched page.
// The write is queued for the background writer; when the queue is full
// it happens synchronously so warmth is not lost under burst.
func (t *PageTier) Store(key string, resp *web.Response, fetchedAt time.Time) {
	data, err := json.Marshal(pagePayload{
		Status:    resp.Status,
		URL:       resp.URL,
		Body:      resp.Body,
		FetchedAt: fetchedAt.UnixNano(),
	})
	if err != nil {
		return
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed {
		return
	}
	job := pageJob{key: key, gen: t.gen, data: data}
	select {
	case t.jobs <- job:
	default:
		if t.store.Put(pagesTier, job.key, job.gen, job.data) == nil {
			t.account(job.key, int64(len(job.data)))
		}
	}
}

// Invalidate implements web.CacheTier: called under the memory cache's
// lock by Clear, it bumps the durable generation and persists it
// synchronously, so the invalidation itself survives a crash — entries
// from before the clear stay dead even if the process dies immediately
// after. With a size bound, dead entries are deleted eagerly (their bytes
// would otherwise stay accounted against nothing); without one they are
// collected lazily, by the Load that finds them.
func (t *PageTier) Invalidate() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gen++
	if t.maxBytes > 0 {
		t.store.DeleteTier(pagesTier)
		t.dropIndex()
	}
	t.store.Put(pagesTier, genMetaKey, t.gen, nil)
}

// Flush blocks until every store queued before the call has been written.
func (t *PageTier) Flush() {
	t.mu.RLock()
	if t.closed {
		t.mu.RUnlock()
		return
	}
	done := make(chan struct{})
	t.jobs <- pageJob{done: done}
	t.mu.RUnlock()
	<-done
}

// Close flushes and stops the background writer. The tier refuses further
// stores (loads keep working) — it is called once, at shutdown.
func (t *PageTier) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	close(t.jobs)
	t.mu.Unlock()
	t.wg.Wait()
}
