// Command webbased serves a webbase as a networked query service: the
// simulated Web and the three-layer system in one process, drivable
// with curl.
//
// Usage:
//
//	webbased                                # open server on :8080
//	webbased -addr :9090 -domain apartments
//	webbased -tenant alice:alicekey:interactive:100:1m \
//	         -tenant bob:bobkey:batch:20:1m # per-tenant keys, classes, quotas
//	webbased -failevery 3 -retries 2        # chaos: serve through a flaky Web
//	webbased -max-inflight 8 -queue-depth 8 -deadline 500ms   # overload protection
//
// Then:
//
//	curl -N -d "SELECT Make, Model, Price WHERE Make = 'jaguar' AND Price < BBPrice AND Condition = 'good'" localhost:8080/query
//	curl -N -H "Authorization: Bearer alicekey" -d '{"query":"SELECT Make, Price WHERE Make = '\''saab'\''"}' localhost:8080/query
//	curl localhost:8080/metrics
//	curl localhost:8080/healthz
//
// POST /query streams the answer as NDJSON: a meta event, one event per
// maximal object as it completes (tuples, or why the object is
// missing), and a trailer with the query's stats and degradation
// report. Errors come back as JSON envelopes with accurate status codes
// (400 unparsable, 401 unknown key, 429 shed or over quota, 502 site
// outage in strict mode, 504 deadline exhausted).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"webbase/cmd/internal/sysflags"
	"webbase/internal/core"
	"webbase/internal/server"
)

// tenantFlags collects repeated -tenant
// name:key[:class[:quota[:window[:maxconc]]]] values.
type tenantFlags []server.Tenant

func (t *tenantFlags) String() string { return fmt.Sprintf("%d tenant(s)", len(*t)) }

func (t *tenantFlags) Set(v string) error {
	parts := strings.Split(v, ":")
	if len(parts) < 2 || len(parts) > 6 {
		return fmt.Errorf("want name:key[:class[:quota[:window[:maxconc]]]], got %q", v)
	}
	tn := server.Tenant{Name: parts[0], Key: parts[1]}
	if len(parts) > 2 {
		switch parts[2] {
		case "interactive", "":
			tn.Class = core.ClassInteractive
		case "batch":
			tn.Class = core.ClassBatch
		default:
			return fmt.Errorf("unknown class %q (interactive or batch)", parts[2])
		}
	}
	if len(parts) > 3 && parts[3] != "" {
		q, err := strconv.ParseInt(parts[3], 10, 64)
		if err != nil || q < 0 {
			return fmt.Errorf("bad quota %q", parts[3])
		}
		tn.Quota = q
	}
	if len(parts) > 4 && parts[4] != "" {
		w, err := time.ParseDuration(parts[4])
		if err != nil {
			return fmt.Errorf("bad window %q: %v", parts[4], err)
		}
		tn.Window = w
	}
	if len(parts) > 5 && parts[5] != "" {
		mc, err := strconv.ParseInt(parts[5], 10, 64)
		if err != nil || mc < 0 {
			return fmt.Errorf("bad maxconc %q", parts[5])
		}
		tn.MaxConcurrent = mc
	}
	*t = append(*t, tn)
	return nil
}

func main() {
	var tenants tenantFlags
	shared := sysflags.Register(flag.CommandLine)
	cfg := &shared.Config
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		maxBody   = flag.Int64("max-body", 0, "request body size bound in bytes (0 = default 1MiB)")
		keepalive = flag.Duration("keepalive", 0, "emit a seq-less keepalive event on idle streams at this interval so clients can detect stalls (0 = off; off keeps stream bytes identical to older servers)")
	)
	flag.IntVar(&cfg.MaxInFlight, "max-inflight", 0, "admission control: max concurrently executing queries (0 = unlimited)")
	flag.IntVar(&cfg.QueueDepth, "queue-depth", 0, "admission control: bounded FIFO wait queue behind -max-inflight; excess queries shed immediately")
	flag.IntVar(&cfg.Healing.Threshold, "drift-threshold", 0, "drift reports that confirm a site redesign and quarantine the site (0 = default 2)")
	flag.StringVar(&cfg.StateDir, "state-dir", "", "durable state directory: persist warmed pages, repaired maps and breaker/health verdicts across restarts (empty = no persistence)")
	flag.Int64Var(&cfg.StateMaxBytes, "state-max-bytes", 0, "size bound for the durable page tier; least-recently-used pages are evicted past it (0 = unbounded)")
	flag.DurationVar(&cfg.Healing.RecoveryBackoff, "recovery-backoff", 0, "re-probe repair-exhausted quarantined sites in the background, starting at this interval and doubling (0 = off)")
	flag.Var(&tenants, "tenant", "tenant spec name:key[:class[:quota[:window[:maxconc]]]]; repeatable. Empty = open server")
	flag.Parse()

	logger := log.New(os.Stderr, "webbased ", log.LstdFlags)

	sys, err := shared.Build()
	if err != nil {
		logger.Fatal(err)
	}

	srv, err := server.New(server.Config{
		System:            sys,
		Tenants:           tenants,
		Logger:            logger,
		MaxBodyBytes:      *maxBody,
		KeepaliveInterval: *keepalive,
	})
	if err != nil {
		logger.Fatal(err)
	}

	// Listen before announcing so -addr :0 logs the port the kernel
	// actually assigned — the fleet harness boots replicas on port 0 and
	// scrapes the address from this line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Graceful shutdown is two phases in strict order: drain in-flight
	// streams (Shutdown), then flush dirty durable state (Close) —
	// flushing first would miss breaker/health transitions and page fills
	// from the queries still draining. main waits on done so the process
	// cannot exit between the two.
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		logger.Println("shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(sctx)
		sys.Close()
		if cfg.StateDir != "" {
			logger.Printf("state flushed to %s", cfg.StateDir)
		}
	}()
	logger.Printf("serving %s domain on %s (tenants: %s)", shared.Domain, ln.Addr().String(), tenants.String())
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Fatal(err)
	}
	<-done
}
