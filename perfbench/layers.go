package main

import (
	"fmt"
	"math"
)

// layerMetrics fills rep with the traced windows' per-layer metrics, per
// completed op unless the name says otherwise, then runs the self-checks.
func layerMetrics(workload string, w *window, rep *report) {
	perOp := func(v float64) float64 { return v / w.ops }
	cpuPerOp := float64(w.cpu) / 1e3 / w.ops

	// CPU by layer from the profiles; the parts should sum to the whole.
	usPerSample := 1e6 / profileHz
	sum := 0.0
	for _, l := range append(layers, "runtime.gc", "runtime.other") {
		v := perOp(w.samples[l] * usPerSample)
		sum += v
		switch l {
		case "runtime.gc":
			rep.set("runtime.gc_cpu_us_per_op", v, "us")
		case "runtime.other":
			rep.set("runtime.other_cpu_us_per_op", v, "us")
		default:
			rep.set(l+".cpu_us_per_op", v, "us")
		}
	}
	rep.set("traced.cpu_us_per_op", cpuPerOp, "us")
	// How far the parts miss the whole, either way: 0 is exact.
	rep.set("traced.layer_cpu_sum_error", math.Abs(sum/cpuPerOp-1), "ratio")

	// The op mix: CPU per op of each class, from the process CPU time that
	// passed while its ops were in flight, and each class's share of the
	// completed ops and of that CPU time.
	var classOps, classCPU float64
	for c := range classNames {
		classOps += float64(w.t.classOps[c])
		classCPU += float64(w.t.classCPU[c])
	}
	for c, n := range classNames {
		ops, cpu := float64(w.t.classOps[c]), float64(w.t.classCPU[c])
		perOp := 0.0
		if ops > 0 {
			perOp = cpu / 1e3 / ops
			fmt.Printf("# mix %s: %.1f%% of ops, %.1f%% of their CPU\n", n, 100*ops/classOps, 100*cpu/classCPU)
		}
		rep.set("mix."+n+".cpu_us_per_op", perOp, "us")
	}

	// liblinux: the drivers' own calls, and the shim histograms of every
	// picoprocess (the fleet's too).
	for c := 0; c < numCalls; c++ {
		rep.set("liblinux."+callNames[c]+".busy_us_per_op", perOp(w.c.callNS[c]/1e3), "us")
	}
	rep.set("liblinux.errors_per_kop", 1000*perOp(w.c.callErrs), "count")
	rep.set("liblinux.syscalls_per_op", perOp(w.c.sysN), "count")
	rep.set("liblinux.shim_us_per_op", perOp(w.c.sysNS/1e3), "us")

	rep.set("monitor.checks_per_op", perOp(w.c.checks), "count")
	rep.set("monitor.check_us_per_op", perOp(w.c.checkNS/1e3), "us")
	rep.set("monitor.denials", w.c.denials, "count")

	rep.set("host.gate_calls_per_op", perOp(w.c.gate), "count")
	rep.set("host.stream_ops_per_op", perOp(float64(w.ev.streamOps)), "count")
	rep.set("host.stream_bytes_per_op", perOp(float64(w.ev.streamBytes)), "B")
	rep.set("host.streams_open", w.streamsOpen, "count")
	rep.set("host.procs_live", w.procsLive, "count")
	rep.set("host.resident_mib", w.resident/(1<<20), "MiB")
	rep.set("host.trace_dropped", float64(w.ev.dropped), "count")

	ringHit := 0.0
	if w.c.ringOps > 0 {
		ringHit = w.c.ringHits / w.c.ringOps
	}
	rep.set("ipc.rpc_calls_per_op", perOp(w.c.rpcN), "count")
	rep.set("ipc.rpc_us_per_op", perOp(w.c.rpcNS/1e3), "us")
	rep.set("ipc.serves_per_op", perOp(float64(w.ev.serves)), "count")
	rep.set("ipc.ring_hit_ratio", ringHit, "ratio")
	rep.set("ipc.failovers", w.c.failovers, "count")
	rep.set("ipc.rpc_timeouts", w.c.rpcTimeouts, "count")

	rep.set("apps.fleet_shed", w.fleetShed, "count")
	rep.set("apps.fleet_crashes", w.fleetCrashes, "count")
	rep.set("apps.fleet_respawns", w.fleetRespawns, "count")

	rep.set("loadgen.lag_p99_us", w.lagP99/1e3, "us")

	rep.set("runtime.alloc_bytes_per_op", perOp(w.alloc), "B")
	rep.set("runtime.allocs_per_op", perOp(w.mallocs), "count")
	rep.set("runtime.gc_cycles_per_kop", 1000*perOp(w.gcs), "count")
	rep.set("runtime.gc_pause_p99_us", quantile(w.gcPauses, 0.99)/1e3, "us")

	// Self-checks: reported, never hidden.
	failed := 0
	check := func(name string, ok bool, detail string) {
		status := "ok"
		if !ok {
			status = "FAIL"
			failed++
		}
		fmt.Printf("# self-check %s: %s (%s)\n", name, status, detail)
	}
	check("cpu profile decodes", w.profileErr == nil, fmt.Sprint(w.profileErr))
	check("layer cpu sums to whole", math.Abs(sum-cpuPerOp) <= 0.1*cpuPerOp,
		fmt.Sprintf("layers %.2f us/op, getrusage %.2f us/op", sum, cpuPerOp))
	check("no trace events dropped", w.ev.dropped == 0, fmt.Sprintf("%d dropped", w.ev.dropped))
	check("no ipc failovers or rpc timeouts", w.c.failovers == 0 && w.c.rpcTimeouts == 0,
		fmt.Sprintf("%g failovers, %g timeouts", w.c.failovers, w.c.rpcTimeouts))
	rep.set("traced.self_check_failures", float64(failed), "count")

	// What each workload was chosen to stress (README.md), against the CPU
	// charged to repository layers.
	repo, largest := 0.0, ""
	for _, l := range layers {
		if l == "bench" {
			continue
		}
		repo += w.samples[l]
		if largest == "" || w.samples[l] > w.samples[largest] {
			largest = l
		}
	}
	share := func(l string) float64 { return w.samples[l] / repo }
	switch workload {
	case "procs":
		expect("liblinux+host hold most repo-layer CPU", share("liblinux")+share("host") > 0.5,
			fmt.Sprintf("%.0f%%", 100*(share("liblinux")+share("host"))))
	case "sysv":
		expect("ipc is the largest repo layer", largest == "ipc", "largest: "+largest)
	case "http":
		expect("host is the largest repo layer, ipc under 2%", largest == "host" && share("ipc") < 0.02,
			fmt.Sprintf("largest: %s, ipc %.1f%%", largest, 100*share("ipc")))
	}
	for _, l := range layers {
		if l != "bench" {
			fmt.Printf("# repo-layer share %s %.1f%%\n", l, 100*share(l))
		}
	}
}

func expect(what string, ok bool, detail string) {
	status := "met"
	if !ok {
		status = "NOT MET"
	}
	fmt.Printf("# expectation %s: %s (%s)\n", what, status, detail)
}
