package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"webbase"
	"webbase/internal/relation"
)

// checksum is an order-independent digest of a tuple multiset: the answer
// of a query is the union over maximal objects, so two correct
// evaluations may differ in nothing but order.
type checksum struct {
	sum   uint64
	count int
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// add folds one tuple in without allocating (it runs inside the timed
// region). Numbers hash by value, so an Int that crossed the wire as a
// JSON number and came back equals the Int that left.
func (c *checksum) add(t webbase.Tuple) {
	h := uint64(fnvOffset)
	mix := func(b byte) { h = (h ^ uint64(b)) * fnvPrime }
	for _, v := range t {
		switch {
		case v.IsNumeric():
			mix('n')
			bits := math.Float64bits(v.FloatVal())
			for i := 0; i < 8; i++ {
				mix(byte(bits >> (8 * i)))
			}
		case v.Kind() == relation.KindString:
			mix('s')
			s := v.Str()
			for i := 0; i < len(s); i++ {
				mix(s[i])
			}
		case v.Kind() == relation.KindBool:
			mix('b')
			if v.BoolVal() {
				mix(1)
			}
		default:
			mix('0')
		}
		mix(0xff)
	}
	c.sum += h
	c.count++
}

func checksumOf(tuples []webbase.Tuple) checksum {
	var c checksum
	for _, t := range tuples {
		c.add(t)
	}
	return c
}

// percentile interpolates linearly between ranks. The deck is a small
// fixed population of queries repeated many times, so a nearest-rank
// percentile would flip between two neighbouring queries from run to run.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMB reads VmHWM, the process's peak resident set, in MiB.
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// memCounters is the slice of runtime.MemStats the benchmark reports.
type memCounters struct {
	mallocs, bytes uint64
	gcs            uint32
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{mallocs: m.Mallocs, bytes: m.TotalAlloc, gcs: m.NumGC}
}

// heapLiveMB forces a collection and reads what survived it.
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// The yardstick is a fixed pure-Go kernel that shares no code with the
// repo: it builds small trees of nodes with attribute maps and renders them
// to a string — allocation, pointer chasing, map and string traffic, the
// same diet as the system under test. It runs between deck passes, all
// through a measured phase, and every clock the benchmark reports is scaled
// by yardstickRefMS over the median yardstick of the same round.
//
// That is what makes the clocks comparable at all on the reference box, a
// shared 2-core VM whose speed drifts by a third over minutes (README.md,
// "Noise control"): across runs the raw clocks spread 17-32% of their
// median, the scaled ones 4-7%. A sort-based kernel tracked the drift only
// half as well, and a few samples at the round boundaries not at all.
const (
	// yardstickRefMS is the yardstick on the reference box when it is
	// quiet, so a scaled clock reads as if the run had that box to itself.
	yardstickRefMS = 14.5
	// yardstickExponent is the measured elasticity of the workloads' clocks
	// to the yardstick: when the host slows the yardstick by 1% it slows
	// the workloads by 0.85%, the kernel leaning harder on memory and the
	// collector than they do. Fitted over two sets of ten runs of every
	// workload taken on hosts 30% apart; with 1 the set medians disagreed by
	// up to 8.6%, with 0.85 by 3.4%.
	yardstickExponent = 0.85
	// yardsPerRound is how many yardstick samples a round takes at least,
	// spread evenly between its passes.
	yardsPerRound = 30
	// setupYards is how many samples scale setup_s.
	setupYards = 10
)

// hostScale is the factor that turns a clock measured while the yardstick
// read yardMS into what the reference host would have shown.
func hostScale(yardMS float64) float64 {
	return math.Pow(yardstickRefMS/yardMS, yardstickExponent)
}

type yardNode struct {
	name     string
	attrs    map[string]string
	children []*yardNode
}

func yardstick() time.Duration {
	start := time.Now()
	var keep []*yardNode
	x := uint64(88172645463325252)
	for i := 0; i < 100; i++ {
		root := &yardNode{name: "html"}
		cur := root
		for j := 0; j < 200; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			n := &yardNode{name: "td", attrs: map[string]string{
				"class": "c" + string(rune('a'+x%26)), "id": strconv.FormatUint(x%1000, 10)}}
			cur.children = append(cur.children, n)
			switch {
			case x%7 == 0:
				cur = root
			case x%3 == 0:
				cur = n
			}
		}
		var sb strings.Builder
		var walk func(n *yardNode)
		walk = func(n *yardNode) {
			sb.WriteString(strings.ToUpper(n.name))
			for k, v := range n.attrs {
				sb.WriteString(k + "=" + v)
			}
			for _, c := range n.children {
				walk(c)
			}
		}
		walk(root)
		if i%50 == 0 {
			keep = append(keep, root)
		}
	}
	elapsed := time.Since(start)
	runtime.KeepAlive(keep) // the kernel's result stays live, so none of it is optimised away
	return elapsed
}

// yardstickMedian takes n samples and returns their median in ms.
func yardstickMedian(n int) float64 {
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = ms(yardstick())
	}
	return median(samples)
}
