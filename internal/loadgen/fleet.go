package loadgen

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os/exec"
	"regexp"
	"sync"
	"sync/atomic"
	"time"

	"webbase/client"
)

// Fleet mode: the multi-process half of the chaos harness. Where RunChaos
// attacks the transport under a single in-process server, RunFleet boots a
// real fleet — N webbased replicas as separate OS processes, each building
// the same deterministic simulated Web, so together they serve one logical
// Web — and attacks the fleet itself: replicas are SIGKILLed and restarted
// on a schedule keyed to stream progress while a connection-severing
// transport keeps killing individual streams. Every query runs through one
// multi-endpoint client, so the run exercises the whole failover surface:
// replica benching, health-ordered rotation, cross-replica resume (fresh
// replicas share a consistency token over the same deterministic world),
// and — should a resume be refused — restart-from-zero. The audit is the
// same absolute property as RunChaos: every stream's final tuple multiset
// equals the uninterrupted answer, exactly once.

// FleetLoad configures one fleet chaos run.
type FleetLoad struct {
	// Replicas is the number of webbased processes to boot (at least 2,
	// so a killed replica always leaves a survivor).
	Replicas int `json:"replicas"`
	// Streams is the total number of client streams; Workers how many run
	// concurrently.
	Streams int `json:"streams"`
	Workers int `json:"workers"`
	// Query is the streamed query text.
	Query string `json:"-"`
	// KillProb is the connection-sever probability of the transport-level
	// chaos riding along (0 defaults to 0.4) — replica kills come on top.
	KillProb float64 `json:"kill_prob"`
	// Seed drives the connection-kill schedule deterministically.
	Seed int64 `json:"seed"`
	// Keepalive is the -keepalive interval the replicas are booted with
	// (0 defaults to 25ms), so client stall watchdogs stay sound.
	Keepalive time.Duration `json:"keepalive_ns"`
}

// FleetReport aggregates a fleet run. A run proves fleet-grade failover
// exactly when DuplicateTuples == MissingTuples == Failed == 0 while
// ReplicaKills > 0 and ConnKills > 0.
type FleetReport struct {
	Load            FleetLoad `json:"load"`
	Streams         int       `json:"streams"`
	ReplicaKills    int       `json:"replica_kills"`    // whole processes SIGKILLed
	ReplicaRestarts int       `json:"replica_restarts"` // processes booted again on their old port
	ConnKills       int64     `json:"conn_kills"`       // connections severed by the chaos transport
	Failovers       int       `json:"failovers"`        // reconnects that switched replica
	ClientRestarts  int       `json:"client_restarts"`  // restart-from-zero after a refused resume
	Keepalives      int       `json:"keepalives"`       // keepalive events consumed by clients
	StreamAudit
}

// fleetServingRE scrapes the actual listen address from a replica's
// announce line — replicas boot on port 0 and let the kernel pick.
var fleetServingRE = regexp.MustCompile(` serving \S+ domain on (\S+) \(`)

// fleetReplica manages one webbased process. The address is fixed at first
// boot and reused on restart, so a restarted replica comes back where the
// client's endpoint set expects it.
type fleetReplica struct {
	bin  string
	addr string // host:port, set by the first start

	mu   sync.Mutex
	cmd  *exec.Cmd
	done chan error // receives cmd.Wait's result
}

// start boots the process and blocks until it announces its address and
// answers /healthz.
func (r *fleetReplica) start(keepalive time.Duration) error {
	addr := r.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	cmd := exec.Command(r.bin, "-addr", addr, "-keepalive", keepalive.String())
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	addrCh := make(chan string, 1)
	go func() {
		// Scan for the announce line, then keep draining so the process
		// never blocks on a full stderr pipe.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := fleetServingRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case a := <-addrCh:
		r.addr = a
	case err := <-done:
		return fmt.Errorf("loadgen: replica exited before announcing its address: %v", err)
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		<-done
		return fmt.Errorf("loadgen: replica on %s never announced its address", addr)
	}
	r.mu.Lock()
	r.cmd, r.done = cmd, done
	r.mu.Unlock()
	return r.waitHealthy()
}

// kill SIGKILLs the process — no drain, no flush; the mid-stream
// connections die with it — and reaps it.
func (r *fleetReplica) kill() {
	r.mu.Lock()
	cmd, done := r.cmd, r.done
	r.cmd, r.done = nil, nil
	r.mu.Unlock()
	if cmd == nil {
		return
	}
	cmd.Process.Kill()
	<-done
}

// restart boots the replica again on the port it held before, retrying
// briefly in case the kernel has not released the address yet.
func (r *fleetReplica) restart(keepalive time.Duration) error {
	var err error
	for i := 0; i < 10; i++ {
		if err = r.start(keepalive); err == nil {
			return nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	return err
}

func (r *fleetReplica) waitHealthy() error {
	url := "http://" + r.addr + "/healthz"
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("loadgen: replica %s never became healthy", r.addr)
}

// RunFleet boots load.Replicas webbased processes from bin, drives
// load.Streams queries through one multi-endpoint client over a
// connection-severing transport, and — on a schedule keyed to completed
// streams — SIGKILLs replicas and restarts them on their old ports. Every
// completed stream's tuples are audited against a ground-truth answer
// fetched once from a healthy replica.
func RunFleet(bin string, load FleetLoad) (*FleetReport, error) {
	if load.Replicas < 2 || load.Streams <= 0 || load.Workers <= 0 || load.Query == "" {
		return nil, fmt.Errorf("loadgen: bad fleet load %+v", load)
	}
	if load.KillProb == 0 {
		load.KillProb = 0.4
	}
	if load.Keepalive == 0 {
		load.Keepalive = 25 * time.Millisecond
	}
	ctx := context.Background()

	replicas := make([]*fleetReplica, load.Replicas)
	for i := range replicas {
		r := &fleetReplica{bin: bin}
		if err := r.start(load.Keepalive); err != nil {
			for _, prev := range replicas[:i] {
				prev.kill()
			}
			return nil, err
		}
		replicas[i] = r
	}
	defer func() {
		for _, r := range replicas {
			r.kill()
		}
	}()

	endpoints := make([]string, len(replicas))
	for i, r := range replicas {
		endpoints[i] = "http://" + r.addr
	}

	// Ground truth: one uninterrupted stream from replica 0 over a plain
	// transport. This also warms replica 0's page cache; the others warm
	// on first contact, which is part of what the run exercises.
	calm, err := client.New(client.Config{BaseURL: endpoints[0]})
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
	fleet, err := client.New(client.Config{
		Endpoints:    endpoints,
		HTTPClient:   &http.Client{Transport: chaos},
		MaxAttempts:  200, // the chaos schedule guarantees progress, not luck
		BackoffBase:  time.Millisecond,
		BackoffMax:   16 * time.Millisecond,
		StallTimeout: 10 * time.Second, // replicas emit keepalives, so this only fires on true stalls
	})
	if err != nil {
		return nil, err
	}

	rep := &FleetReport{Load: load, Streams: load.Streams}
	var (
		ctlErr    error // with the replica counts, the controller's until ctlDone closes
		completed atomic.Int64
	)

	// Chaos controller: replica kills and restarts keyed to aggregate
	// stream progress, so the fleet loses capacity while streams are
	// provably in flight and gets it back before the run drains. At most
	// one replica is down at a time — a survivor always exists.
	stop := make(chan struct{})
	ctlDone := make(chan struct{})
	go func() {
		defer close(ctlDone)
		s := int64(load.Streams)
		steps := []struct {
			at  int64
			act func()
		}{
			{s / 4, func() {
				replicas[1].kill()
				rep.ReplicaKills++
			}},
			{s / 2, func() {
				if err := replicas[1].restart(load.Keepalive); err != nil {
					ctlErr = err
					return
				}
				rep.ReplicaRestarts++
				replicas[2%len(replicas)].kill()
				rep.ReplicaKills++
			}},
			{3 * s / 4, func() {
				if err := replicas[2%len(replicas)].restart(load.Keepalive); err != nil {
					ctlErr = err
					return
				}
				rep.ReplicaRestarts++
			}},
		}
		for _, step := range steps {
			for completed.Load() < step.at {
				select {
				case <-stop:
					return
				case <-time.After(5 * time.Millisecond):
				}
			}
			step.act()
		}
	}()

	rep.StreamAudit = driveStreams(ctx, fleet, load.Query, load.Streams, load.Workers, want, func(st *client.Stream) {
		if st != nil {
			rep.Failovers += st.Failovers()
			rep.ClientRestarts += st.Restarts()
			rep.Keepalives += st.Keepalives()
		}
		completed.Add(1)
	})
	close(stop)
	<-ctlDone

	rep.ConnKills = chaos.kills.Load()
	if ctlErr != nil {
		return rep, fmt.Errorf("loadgen: chaos controller: %w", ctlErr)
	}
	return rep, nil
}
