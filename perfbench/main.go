// Command perfbench is the repository's benchmark. It boots Graphene with
// the reference monitor on, runs one seeded workload (procs, sysv or http),
// checks every output, and prints the end-to-end metrics, or with -trace 1
// the per-layer metrics of a traced run. The last line of standard output
// is one JSON object. See README.md.
//
//	perfbench -workload procs -seed 1 -seconds 16 -trace 0
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"graphene/internal/host"
)

const (
	// An end-to-end run boots sessions one after another, each set up,
	// warmed and measured for at most 1/plainSessions of --seconds, until
	// their windows add up to --seconds or maxSessions ran; it reports
	// each metric's median over them.
	plainSessions = 8
	maxSessions   = 24
	// maxStolen is the share of the machine's CPU time the hypervisor may
	// take during a window before the session is not counted: on a shared
	// VM, windows with steal bursts read latencies up to a thousand times
	// the usual. minCounted is the fewest counted sessions a run reports.
	maxStolen  = 0.05
	minCounted = 3
	// tracedPairs is how many untraced and traced sessions a traced run
	// alternates; layer metrics sum over the traced ones.
	tracedPairs = 3
	// profileHz is the traced windows' CPU profile rate. The kernel checks
	// a thread's CPU timer only at a tick that finds the thread running,
	// so threads that run in short bursts overrun their timers and lose
	// samples: http lost about a fifth of its CPU time at 100 Hz, 3 to 15%
	// at 50 Hz and 4 to 7% at 25 Hz.
	profileHz = 25
)

// printedOnly are end-to-end metrics printed with the others but left out
// of the JSON result, which holds the metrics BENCHMARK.json declares with
// a bound. fail_ratio reads 0 on a healthy run; failures reach the result
// as attempted and failed. The latencies spread too widely between runs
// of http on the reference machine to carry a bound (README.md).
var printedOnly = []string{"fail_ratio", "lat_p50_us", "lat_p99_us"}

// session is one booted sandbox running one workload, set up and warmed.
type session interface {
	env() *env
	// run measures one window of about d and returns its tally.
	run(d time.Duration) (tally, error)
	// close stops the workload and checks that it stopped cleanly.
	close() error
}

// fleetReporter is a session whose fleet counters are read after close.
type fleetReporter interface {
	fleet() (shed, crashes, respawns int)
}

type workload struct {
	name  string
	setup func(seed int64, tp *probe) (session, error)
}

var workloads = []workload{procsWorkload, sysvWorkload, httpWorkload}

// wrongOutput marks an op whose output failed its check (as opposed to
// one that failed with an errno or a timeout).
type wrongOutput struct{ what string }

func (w *wrongOutput) Error() string { return "wrong output: " + w.what }

func wrong(format string, args ...any) error { return &wrongOutput{fmt.Sprintf(format, args...)} }

func isWrong(err error) bool {
	var w *wrongOutput
	return errors.As(err, &w)
}

// metric is one named figure in the result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics in print order.
type report struct {
	names []string
	m     map[string]metric
}

func (r *report) set(name string, v float64, unit string) {
	if r.m == nil {
		r.m = make(map[string]metric)
	}
	if _, ok := r.m[name]; !ok {
		r.names = append(r.names, name)
	}
	r.m[name] = metric{Value: v, Unit: unit}
}

// printSession prints one session's figures as a comment line, so every
// value behind a reported median is on record.
func printSession(label string, i int, w *window) {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s %d", label, i)
	r := w.endToEnd()
	for _, n := range r.names {
		fmt.Fprintf(&b, " %s=%.6g", n, r.m[n].Value)
	}
	fmt.Fprintf(&b, " stolen_pct=%.3g", 100*w.stolenShare())
	fmt.Println(b.String())
}

// stolenShare is the share of the machine's CPU time the hypervisor took
// during the window.
func (w *window) stolenShare() float64 {
	return w.stolen.Seconds() / (w.t.elapsed.Seconds() * float64(runtime.NumCPU()))
}

// medianOf reports each metric's median over reps, which share names.
func medianOf(reps []report) report {
	var out report
	for _, n := range reps[0].names {
		vs := make([]float64, len(reps))
		for i, r := range reps {
			vs[i] = r.m[n].Value
		}
		out.set(n, medianF(vs), reps[0].m[n].Unit)
	}
	return out
}

func main() {
	name := flag.String("workload", "", "workload to run: procs, sysv or http")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 16, "measured time of the whole run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload procs|sysv|http -seed N -seconds N -trace 0|1")
		os.Exit(2)
	}
	printProvenance(w.name, *seed, *seconds, *trace)

	measured := time.Duration(*seconds) * time.Second
	var (
		rep report
		t   tally
		err error
	)
	if *trace == 0 {
		t, err = runPlain(w, *seed, measured, &rep)
	} else {
		t, err = runTraced(w, *seed, measured, &rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, n := range rep.names {
		fmt.Printf("%s %s %.6g %s\n", w.name, n, rep.m[n].Value, rep.m[n].Unit)
	}
	for _, n := range printedOnly {
		delete(rep.m, n)
	}
	res := result{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed, Metrics: rep.m}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d ops produced wrong output\n", t.wrong)
		os.Exit(1)
	}
}

// runPlain is the end-to-end run: the program at its default trace level,
// no wrappers.
func runPlain(w *workload, seed int64, d time.Duration, rep *report) (tally, error) {
	var reps []report
	total, err := warmUp(w, seed, d/plainSessions)
	if err != nil {
		return tally{}, err
	}
	// Windows that end early (procs ends at the end of its op list) leave
	// time for more sessions. A session whose window lost more than
	// maxStolen of the machine's CPU time to the hypervisor is printed but
	// not counted, and its time is measured again.
	var (
		all      []report
		measured time.Duration
		begin    = time.Now()
	)
	for i := 0; measured < d && i < maxSessions && time.Since(begin) < 3*d; i++ {
		win, err := session1(w, seed, nil, d/plainSessions)
		if err != nil {
			return tally{}, err
		}
		printSession("session", i, win)
		total.add(win.t)
		all = append(all, win.endToEnd())
		if win.stolenShare() > maxStolen {
			fmt.Printf("# session %d not counted: the hypervisor took %.0f%% of the CPU time\n", i, 100*win.stolenShare())
			continue
		}
		measured += win.t.elapsed
		reps = append(reps, all[len(all)-1])
	}
	if len(reps) < minCounted {
		fmt.Printf("# only %d sessions ran without steal: reporting all %d\n", len(reps), len(all))
		reps = all
	}
	*rep = medianOf(reps)
	return total, nil
}

// warmUp runs one untraced session whose figures are printed but not
// reported: the first session in a fresh OS process also pays for the
// Go heap's first growth, page faults included.
func warmUp(w *workload, seed int64, d time.Duration) (tally, error) {
	win, err := session1(w, seed, nil, d)
	if err != nil {
		return tally{}, err
	}
	printSession("warm-up session", 0, win)
	return win.t, nil
}

// runTraced is the per-layer run. It alternates untraced and traced
// sessions, reports the traced windows' layer metrics, and reports the
// traced-minus-untraced difference of each end-to-end median as the
// tracing overhead.
func runTraced(w *workload, seed int64, d time.Duration, rep *report) (tally, error) {
	var (
		refReps, trReps []report
		traced          []*window
		refLag          []float64
	)
	each := d / (2 * tracedPairs)
	total, err := warmUp(w, seed, each)
	if err != nil {
		return tally{}, err
	}
	for i := 0; i < tracedPairs; i++ {
		ref, err := session1(w, seed, nil, each)
		if err != nil {
			return tally{}, err
		}
		refReps = append(refReps, ref.endToEnd())
		printSession("untraced session", i, ref)
		refLag = append(refLag, ref.lagP99)
		total.add(ref.t)

		prev := host.SetTraceLevel(host.TraceVerbose)
		tp := newProbe()
		tr, err := session1(w, seed, tp, each)
		tp.close()
		host.SetTraceLevel(prev)
		if err != nil {
			return tally{}, err
		}
		trReps = append(trReps, tr.endToEnd())
		printSession("traced session", i, tr)
		traced = append(traced, tr)
		total.add(tr.t)
	}
	sum := sumWindows(traced)
	// How late the generator sends is its own behaviour, which tracing
	// would distort: take it from the untraced sessions.
	sum.lagP99 = medianF(refLag)
	layerMetrics(w.name, sum, rep)
	refMed, trMed := medianOf(refReps), medianOf(trReps)
	for _, n := range trMed.names {
		rep.set("trace_overhead."+n, trMed.m[n].Value-refMed.m[n].Value, trMed.m[n].Unit)
	}
	return total, nil
}

// window is one measured window and what was read around it. Counts are
// the window's deltas, so windows of several sessions add up.
type window struct {
	t        tally // latency samples dropped once summarised
	setup    time.Duration
	cpu      time.Duration
	stolen   time.Duration // CPU time the hypervisor took from the machine
	ops      float64       // completed ops
	p50, p99 float64       // ns
	lagP99   float64       // ns
	heapLive float64       // bytes
	alloc    float64       // bytes allocated
	mallocs  float64
	gcs      float64
	gcPauses []int64 // ns

	// traced sessions only
	c                                      counters
	ev                                     eventCounts
	samples                                map[string]float64 // CPU profile samples by layer
	profileErr                             error
	streamsOpen, procsLive, resident       float64 // at the window's end
	fleetShed, fleetCrashes, fleetRespawns float64 // read after close
}

// session1 sets up one session, measures one window of d on it and
// closes it.
func session1(w *workload, seed int64, tp *probe, d time.Duration) (*window, error) {
	runtime.GC()
	start := time.Now()
	s, err := w.setup(seed, tp)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	setup := time.Since(start)
	win, err := measure(s, d)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	win.setup = setup
	if f, ok := s.(fleetReporter); ok {
		shed, crashes, respawns := f.fleet()
		win.fleetShed, win.fleetCrashes, win.fleetRespawns = float64(shed), float64(crashes), float64(respawns)
	}
	return win, nil
}

// measure runs one window on s. On a traced session it also drains the
// flight recorders around the window, reads the program's counters and
// takes a CPU profile.
func measure(s session, d time.Duration) (*window, error) {
	e := s.env()
	w := &window{}
	runtime.GC()
	var (
		c0   counters
		prof bytes.Buffer
	)
	if e.tp != nil {
		c0 = readCounters(e)
		e.tp.setCounting(true)
		// Setting the rate first overrides StartCPUProfile's 100 Hz; the
		// runtime says so with a warning on standard error.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, stolen0 := cpuTime(), stolenTime()
	t, err := s.run(d)
	w.cpu, w.stolen = cpuTime()-cpu0, stolenTime()-stolen0
	runtime.ReadMemStats(&ms1)
	if e.tp != nil {
		pprof.StopCPUProfile()
		e.tp.setCounting(false)
		w.c = readCounters(e).combine(c0, -1)
		w.ev = e.tp.takeEvents()
		w.samples, w.profileErr = attribute(prof.Bytes())
		for _, p := range e.Kernel.Processes() {
			if p.Dead() {
				continue
			}
			w.procsLive++
			w.streamsOpen += float64(len(p.OpenStreams()))
			w.resident += float64(p.AS.ResidentBytes())
		}
	}
	if err != nil {
		return nil, err
	}
	if len(t.lat) == 0 {
		return nil, fmt.Errorf("no op completed in the window (%d attempted, %d failed)", t.attempted, t.failed)
	}
	w.t = t
	w.ops = float64(len(t.lat))
	w.p50 = quantile(t.lat, 0.50)
	w.p99 = quantile(t.lat, 0.99)
	w.lagP99 = quantile(t.lag, 0.99)
	w.alloc = float64(ms1.TotalAlloc - ms0.TotalAlloc)
	w.mallocs = float64(ms1.Mallocs - ms0.Mallocs)
	w.gcs = float64(ms1.NumGC - ms0.NumGC)
	w.gcPauses = gcPauses(&ms0, &ms1)
	// The latency samples are the benchmark's, not the sandbox's: drop
	// them before reading the live heap.
	w.t.lat, w.t.lag = nil, nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.heapLive = float64(ms.HeapAlloc)
	return w, nil
}

// gcPauses lists the stop-the-world pauses of the GC cycles between two
// MemStats reads (the runtime keeps the last 256).
func gcPauses(a, b *runtime.MemStats) []int64 {
	n := min(int(b.NumGC-a.NumGC), len(b.PauseNs))
	out := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		idx := (int(b.NumGC) - 1 - i + len(b.PauseNs)) % len(b.PauseNs)
		out = append(out, int64(b.PauseNs[idx]))
	}
	return out
}

func (w *window) endToEnd() report {
	var r report
	r.set("ops_per_s", w.ops/w.t.elapsed.Seconds(), "1/s")
	r.set("lat_p50_us", w.p50/1e3, "us")
	r.set("lat_p99_us", w.p99/1e3, "us")
	r.set("cpu_us_per_op", float64(w.cpu)/1e3/w.ops, "us")
	r.set("fail_ratio", float64(w.t.failed)/float64(w.t.attempted), "ratio")
	r.set("heap_live_mib", w.heapLive/(1<<20), "MiB")
	r.set("setup_s", w.setup.Seconds(), "s")
	return r
}

// sumWindows adds up the traced windows: counts, CPU and samples sum;
// end states take their median.
func sumWindows(ws []*window) *window {
	sum := &window{samples: make(map[string]float64)}
	var streams, procs, resident []float64
	for _, w := range ws {
		sum.t.add(w.t)
		sum.cpu += w.cpu
		sum.ops += w.ops
		sum.alloc += w.alloc
		sum.mallocs += w.mallocs
		sum.gcs += w.gcs
		sum.gcPauses = append(sum.gcPauses, w.gcPauses...)
		sum.c = sum.c.combine(w.c, 1)
		sum.ev.add(w.ev)
		for l, n := range w.samples {
			sum.samples[l] += n
		}
		sum.profileErr = errors.Join(sum.profileErr, w.profileErr)
		sum.fleetShed += w.fleetShed
		sum.fleetCrashes += w.fleetCrashes
		sum.fleetRespawns += w.fleetRespawns
		streams = append(streams, w.streamsOpen)
		procs = append(procs, w.procsLive)
		resident = append(resident, w.resident)
	}
	sum.streamsOpen, sum.procsLive, sum.resident = medianF(streams), medianF(procs), medianF(resident)
	return sum
}
