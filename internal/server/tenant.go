package server

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"webbase/internal/core"
	"webbase/internal/wire"
)

// Tenant identification errors, under the codes they answer with.
var (
	errUnknownKey      = coded(wire.CodeUnauthorized, "server: unknown API key")
	errQuotaExhausted  = coded(wire.CodeQuotaExhausted, "server: tenant quota exhausted")
	errTenantSaturated = coded(wire.CodeTenantSaturated, "server: tenant concurrency limit reached")
)

// DefaultQuotaWindow is the fixed quota window applied when a Tenant
// sets a Quota but no Window.
const DefaultQuotaWindow = time.Minute

// Tenant is one API key's identity and service level: the admission
// class its queries run at (interactive queries outrank batch under
// overload) and a fixed-window request quota — the access-limited-source
// discipline, applied to callers instead of sites.
type Tenant struct {
	// Key is the API key presented as "Authorization: Bearer <key>" or
	// "X-API-Key: <key>". Required.
	Key string
	// Name labels the tenant in metrics and logs. Required.
	Name string
	// Class is the admission class of the tenant's queries.
	Class core.QueryClass
	// Quota caps admitted queries per Window; beyond it requests are
	// shed with 429 before any work happens. 0 = unlimited.
	Quota int64
	// Window is the fixed quota window. 0 means DefaultQuotaWindow.
	Window time.Duration
	// MaxConcurrent caps the tenant's concurrently executing queries
	// (streams held open count for their whole duration). Beyond it,
	// requests are shed with 429 — and, unlike quota sheds, do not spend
	// quota: a saturated burst does not eat the tenant's window budget.
	// 0 = unlimited.
	MaxConcurrent int64
}

// tenantState is a Tenant plus its current quota window and in-flight
// count.
type tenantState struct {
	Tenant
	windowStart time.Time
	used        int64
	inflight    int64
}

// tenantSet maps API keys to tenants and enforces fixed-window quotas.
// With no tenants configured the set is open: every request runs as the
// anonymous interactive tenant with no quota.
type tenantSet struct {
	clock func() time.Time

	mu    sync.Mutex
	byKey map[string]*tenantState
	anon  *Tenant // non-nil when the set is open
}

func newTenantSet(tenants []Tenant, clock func() time.Time) (*tenantSet, error) {
	if clock == nil {
		clock = time.Now
	}
	ts := &tenantSet{clock: clock, byKey: make(map[string]*tenantState, len(tenants))}
	if len(tenants) == 0 {
		ts.anon = &Tenant{Name: "anonymous", Class: core.ClassInteractive}
		return ts, nil
	}
	names := make(map[string]bool, len(tenants))
	for _, t := range tenants {
		if t.Key == "" || t.Name == "" {
			return nil, fmt.Errorf("server: tenant needs both a key and a name: %+v", t)
		}
		if _, dup := ts.byKey[t.Key]; dup {
			return nil, fmt.Errorf("server: duplicate tenant key %q", t.Key)
		}
		if names[t.Name] {
			return nil, fmt.Errorf("server: duplicate tenant name %q", t.Name)
		}
		names[t.Name] = true
		if t.Window <= 0 {
			t.Window = DefaultQuotaWindow
		}
		ts.byKey[t.Key] = &tenantState{Tenant: t}
	}
	return ts, nil
}

// admit authenticates the key, checks the tenant's concurrency limit and
// spends one unit of its quota. It returns the tenant's identity even
// when the request is shed, so the caller can attribute the shed to the
// right tenant, plus a release the caller must invoke when the request
// finishes (safe to call more than once; a no-op on error). The
// concurrency check runs before the quota spend, so a saturated request
// never consumes window budget.
func (ts *tenantSet) admit(key string) (Tenant, func(), error) {
	release := func() {}
	if ts.anon != nil {
		return *ts.anon, release, nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	st, ok := ts.byKey[key]
	if !ok {
		return Tenant{}, release, errUnknownKey
	}
	if st.MaxConcurrent > 0 && st.inflight >= st.MaxConcurrent {
		return st.Tenant, release, fmt.Errorf("%w: tenant %q has %d of %d queries in flight",
			errTenantSaturated, st.Name, st.inflight, st.MaxConcurrent)
	}
	if st.Quota > 0 {
		now := ts.clock()
		if now.Sub(st.windowStart) >= st.Window {
			st.windowStart = now
			st.used = 0
		}
		if st.used >= st.Quota {
			return st.Tenant, release, fmt.Errorf("%w: tenant %q spent %d of %d this window",
				errQuotaExhausted, st.Name, st.used, st.Quota)
		}
		st.used++
	}
	st.inflight++
	var once sync.Once
	release = func() {
		once.Do(func() {
			ts.mu.Lock()
			st.inflight--
			ts.mu.Unlock()
		})
	}
	return st.Tenant, release, nil
}

// apiKey extracts the request's API key: a Bearer token, else the
// X-API-Key header.
func apiKey(r *http.Request) string {
	if auth := r.Header.Get("Authorization"); auth != "" {
		if k, ok := strings.CutPrefix(auth, "Bearer "); ok {
			return strings.TrimSpace(k)
		}
	}
	return r.Header.Get("X-API-Key")
}
