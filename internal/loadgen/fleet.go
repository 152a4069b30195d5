package loadgen

import (
	"bufio"
	"fmt"
	"net/http"
	"os/exec"
	"regexp"
	"sync"
	"sync/atomic"
	"time"
)

// Fleet mode: a Scenario that names a Binary boots a real fleet — N
// webbased replicas as separate OS processes, each building the same
// deterministic simulated Web, so together they serve one logical Web —
// and attacks the fleet itself: replicas are SIGKILLed and restarted on a
// schedule keyed to stream progress while the streams run. Every tenant's
// client holds the whole replica set, so the run exercises the whole
// failover surface: replica benching, health-ordered rotation,
// cross-replica resume (fresh replicas share a consistency token over the
// same deterministic world), and — should a resume be refused —
// restart-from-zero.

// replicaKeepalive is the -keepalive interval replicas boot with, so the
// clients' stall watchdogs stay sound.
const replicaKeepalive = 25 * time.Millisecond

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

// fleet is the booted replicas, in endpoint order.
type fleet []*fleetReplica

// bootFleet starts n replicas from bin. On failure none is left running.
func bootFleet(bin string, n int) (fleet, error) {
	f := make(fleet, 0, n)
	for i := 0; i < n; i++ {
		r := &fleetReplica{bin: bin}
		if err := r.start(replicaKeepalive); err != nil {
			f.kill()
			return nil, err
		}
		f = append(f, r)
	}
	return f, nil
}

func (f fleet) kill() {
	for _, r := range f {
		r.kill()
	}
}

func (f fleet) endpoints() []string {
	urls := make([]string, len(f))
	for i, r := range f {
		urls[i] = "http://" + r.addr
	}
	return urls
}

// schedule kills and reboots replicas at points keyed to how many of
// total streams have ended — kill the second at ¼; reboot it and kill
// the third at ½; reboot that at ¾ — so the fleet loses capacity while
// streams are provably in flight and gets it back before the run drains.
// At most one replica is down at a time, so a survivor always exists. It
// returns when the schedule is done, a reboot fails, or stop closes; an
// empty fleet has no schedule.
func (f fleet) schedule(total int64, ended *atomic.Int64, stop <-chan struct{}, rep *Report) error {
	if len(f) == 0 {
		return nil
	}
	third := f[2%len(f)]
	steps := []struct {
		at           int64
		reboot, kill *fleetReplica
	}{
		{total / 4, nil, f[1]},
		{total / 2, f[1], third},
		{3 * total / 4, third, nil},
	}
	for _, step := range steps {
		for ended.Load() < step.at {
			select {
			case <-stop:
				return nil
			case <-time.After(5 * time.Millisecond):
			}
		}
		if step.reboot != nil {
			if err := step.reboot.restart(replicaKeepalive); err != nil {
				return err
			}
			rep.ReplicaRestarts++
		}
		if step.kill != nil {
			step.kill.kill()
			rep.ReplicaKills++
		}
	}
	return nil
}
