package main

import (
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Op classes, the kinds of op the workloads mix: procs forks or spawns;
// sysv sends small or large messages or does a semaphore ping-pong; http
// fetches small or large documents. The traced run reports each class's
// CPU per op (mix.* metrics) and its share of the ops and of their CPU.
const (
	classFork = iota
	classSpawn
	classSmall
	classLarge
	classSem
	numClasses
)

var classNames = [numClasses]string{"fork", "spawn", "small", "large", "sem"}

// tally is what a workload's drivers report for one measured window.
// Latencies are nanoseconds per completed op; failed ops (errno, timeout,
// shed, wrong output) are counted, not timed.
type tally struct {
	lat       []int64
	lag       []int64 // open loop only: how late each request was sent
	attempted int
	failed    int
	wrong     int
	elapsed   time.Duration
	// Completed ops by class and, on traced sessions, the process CPU
	// time that passed while they were in flight.
	classOps [numClasses]int
	classCPU [numClasses]time.Duration
}

func (t *tally) add(o tally) {
	t.lat = append(t.lat, o.lat...)
	t.lag = append(t.lag, o.lag...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	if o.elapsed > t.elapsed {
		t.elapsed = o.elapsed
	}
	for c := range t.classOps {
		t.classOps[c] += o.classOps[c]
		t.classCPU[c] += o.classCPU[c]
	}
}

// record files one op's outcome: err == nil is a completed op of class
// taking lat, during which cpu of process CPU time passed.
func (t *tally) record(class int, lat, cpu time.Duration, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if isWrong(err) {
			t.wrong++
		}
		return
	}
	t.lat = append(t.lat, int64(lat))
	t.classOps[class]++
	t.classCPU[class] += cpu
}

// quantile returns the nearest-rank q-quantile of vs (sorted in place).
func quantile(vs []int64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	slices.Sort(vs)
	i := int(q*float64(len(vs))+0.5) - 1
	i = max(0, min(i, len(vs)-1))
	return float64(vs[i])
}

func medianF(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Input generation. Every seed gives the same mix of op kinds and the same
// sizes; the seed sets their order and the bytes, so runs with different
// seeds measure the same amount of work.

// mix returns n op kinds in blocks of sum(counts): each block holds
// counts[k] ops of kind k in a seeded order, so any stretch of the list
// has nearly the same mix.
func mix(r *rand.Rand, n int, counts ...int) []int {
	var block []int
	for k, c := range counts {
		for i := 0; i < c; i++ {
			block = append(block, k)
		}
	}
	out := make([]int, 0, n+len(block))
	for len(out) < n {
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}

// spaced returns n sizes evenly spaced over [lo, hi] in a seeded order.
func spaced(r *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo + int((float64(i)+0.5)/float64(n)*float64(hi-lo))
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// stolenTime is the CPU time the hypervisor has taken from this machine's
// CPUs since boot (the steal column of /proc/stat), or 0 where the kernel
// does not report it.
func stolenTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / 100 // USER_HZ
}

// cpuTime is the user+system CPU time of this OS process so far: the
// simulated host, every picoprocess and the load generator together.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
