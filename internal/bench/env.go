// Package bench implements the experiment drivers that regenerate every
// table and figure in the paper's evaluation (§6). cmd/graphene-bench and
// the repository-root benchmarks both call into it.
package bench

import (
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"graphene/internal/api"
	"graphene/internal/apps"
	"graphene/internal/baseline/kvm"
	"graphene/internal/baseline/native"
	"graphene/internal/host"
	"graphene/internal/liblinux"
	"graphene/internal/monitor"
)

// permissiveManifest is the benchmark manifest: everything the workloads
// touch is permitted, so measured overheads are mechanism costs.
const permissiveManifest = `
mount / /
allow_read /
allow_write /
net_listen *:*
net_connect *:*
`

// GrapheneEnv is a booted Graphene installation.
type GrapheneEnv struct {
	Kernel   *host.Kernel
	Monitor  *monitor.Monitor
	Runtime  *liblinux.Runtime
	Manifest *monitor.Manifest
}

// NewGraphene boots Graphene with the reference monitor enforcing the
// permissive manifest (the paper's default configuration: "Graphene
// measurements include the reference monitor").
func NewGraphene() (*GrapheneEnv, error) {
	k := host.NewKernel()
	m := monitor.New(k)
	rt := liblinux.NewRuntime(k, m)
	if err := apps.RegisterAll(rt.RegisterProgram); err != nil {
		return nil, err
	}
	man, err := monitor.ParseManifest("bench", permissiveManifest)
	if err != nil {
		return nil, err
	}
	return &GrapheneEnv{Kernel: k, Monitor: m, Runtime: rt, Manifest: man}, nil
}

// noRMPolicy disables the reference monitor's path and network checks
// while keeping sandbox bookkeeping intact — the paper's "without RM"
// configuration (§6.4 measures both).
type noRMPolicy struct {
	*monitor.Monitor
}

func (noRMPolicy) CheckOpen(*host.Picoprocess, string, bool) error { return nil }
func (n noRMPolicy) TranslatePath(_ *host.Picoprocess, path string) (string, error) {
	return host.CleanPath(path), nil
}
func (noRMPolicy) CheckNetBind(*host.Picoprocess, api.SockAddr) error    { return nil }
func (noRMPolicy) CheckNetConnect(*host.Picoprocess, api.SockAddr) error { return nil }

// NewGrapheneNoRM boots Graphene with reference monitoring disabled.
func NewGrapheneNoRM() (*GrapheneEnv, error) {
	env, err := NewGraphene()
	if err != nil {
		return nil, err
	}
	env.Kernel.SetPolicy(noRMPolicy{env.Monitor})
	return env, nil
}

// Launch runs a program to completion and returns its exit code.
func (e *GrapheneEnv) Launch(path string, argv []string) (*liblinux.LaunchResult, error) {
	return e.Runtime.Launch(e.Manifest, path, append([]string{path}, argv...))
}

// Run launches and waits with a deadline.
func (e *GrapheneEnv) Run(path string, argv ...string) (int, error) {
	res, err := e.Launch(path, argv)
	if err != nil {
		return 0, err
	}
	return waitResult(res.Done, func() int { return res.ExitCode() }, workloadDeadline)
}

// RunShardedFor launches on an N-shard namespace plane and waits, with a
// caller-chosen hang deadline, for callers that run the same workload many
// times and know how long a healthy run takes — a sweep should not burn
// the default ten minutes discovering that one of its forty windows wedged.
func (e *GrapheneEnv) RunShardedFor(deadline time.Duration, shards int, path string, argv ...string) (int, error) {
	res, err := e.Runtime.LaunchSharded(e.Manifest, path, append([]string{path}, argv...), shards)
	if err != nil {
		return 0, err
	}
	return waitResult(res.Done, func() int { return res.ExitCode() }, deadline)
}

// ResidentBytes sums the footprint of every picoprocess on the host.
func (e *GrapheneEnv) ResidentBytes() uint64 {
	var total uint64
	for _, p := range e.Kernel.Processes() {
		total += p.AS.ResidentBytes()
	}
	return total
}

// NativeEnv is a booted native kernel.
type NativeEnv struct {
	Kernel *native.Kernel
}

// NewNative boots the native-Linux baseline with the app suite installed.
func NewNative() (*NativeEnv, error) {
	k := native.NewKernel()
	if err := apps.RegisterAll(k.RegisterProgram); err != nil {
		return nil, err
	}
	return &NativeEnv{Kernel: k}, nil
}

// Launch starts a program.
func (e *NativeEnv) Launch(path string, argv []string) (*native.LaunchResult, error) {
	return e.Kernel.Launch(path, append([]string{path}, argv...))
}

// Run launches and waits.
func (e *NativeEnv) Run(path string, argv ...string) (int, error) {
	res, err := e.Launch(path, argv)
	if err != nil {
		return 0, err
	}
	return waitResult(res.Done, func() int { return res.ExitCode() }, workloadDeadline)
}

// ResidentBytes is the native column of Figure 4.
func (e *NativeEnv) ResidentBytes() uint64 { return e.Kernel.ResidentBytes() }

// KVMEnv is a booted virtual machine.
type KVMEnv struct {
	VM *kvm.VM
}

// NewKVM boots a VM with the app suite installed in the guest.
func NewKVM() (*KVMEnv, error) {
	vm := kvm.StartVM()
	if err := apps.RegisterAll(vm.RegisterProgram); err != nil {
		return nil, err
	}
	return &KVMEnv{VM: vm}, nil
}

// Launch starts a guest program.
func (e *KVMEnv) Launch(path string, argv []string) (*kvm.LaunchResult, error) {
	return e.VM.Launch(path, append([]string{path}, argv...))
}

// Run launches and waits.
func (e *KVMEnv) Run(path string, argv ...string) (int, error) {
	res, err := e.Launch(path, argv)
	if err != nil {
		return 0, err
	}
	return waitResult(res.Done, func() int { return res.ExitCode() }, workloadDeadline)
}

// ResidentBytes is the KVM column of Figure 4.
func (e *KVMEnv) ResidentBytes() uint64 { return e.VM.ResidentBytes() }

// workloadDeadline is the default hang watchdog for Run.
const workloadDeadline = 10 * time.Minute

func waitResult(done chan struct{}, code func() int, deadline time.Duration) (int, error) {
	select {
	case <-done:
		return code(), nil
	case <-time.After(deadline):
		// A hung workload is a coordination bug. Dump every goroutine
		// before reporting it so the wedged call — the parked Msgrcv, the
		// RPC that never completed — lands in the bench log instead of
		// vanishing when the process exits.
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		return 0, fmt.Errorf("bench: workload hung")
	}
}

// sampleMax polls fn until stop closes and returns the maximum — the
// "maximum kernel-reported resident set size" sampling of §6.2.
func sampleMax(stop <-chan struct{}, fn func() uint64) uint64 {
	var peak uint64
	for {
		select {
		case <-stop:
			return peak
		default:
		}
		if v := fn(); v > peak {
			peak = v
		}
		time.Sleep(300 * time.Microsecond)
	}
}
