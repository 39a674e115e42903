// Package native implements the "native Linux process" baseline of the
// paper's evaluation: the same api.OS surface as libLinux, but served by a
// single shared monolithic kernel — central PID table, kernel-resident
// System V IPC, in-kernel copy-on-write fork — with a modeled user/kernel
// crossing on every call. No PAL, no reference monitor, no RPC: this is
// the comparator every table measures Graphene against.
package native

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"graphene/internal/api"
	"graphene/internal/host"
)

// kernelCrossingWork models the cost of a trap into a monolithic kernel
// (mode switch + entry bookkeeping). Calibrated so that trivial syscalls
// cost tens of nanoseconds, as on real hardware — which is what makes
// library-serviced calls measurably faster on Graphene (Table 6).
const kernelCrossingWork = 60

// forkWork and execWork model the in-kernel cost of fork (page-table
// copy, scheduler enrollment; ~67 us in the paper's Table 6) and execve
// (image mapping, linker; fork+exec ~231 us) beyond the bare trap.
const (
	forkWork = 35000
	execWork = 90000
)

var crossingSink atomic.Uint64

// kernelEntry burns the modeled trap cost.
func kernelEntry() { kernelWork(kernelCrossingWork) }

// kernelWork burns n units of modeled in-kernel work.
func kernelWork(n int) {
	var acc uint64 = 0x9e3779b97f4a7c15
	for i := 0; i < n; i++ {
		acc ^= acc << 13
		acc ^= acc >> 7
		acc ^= acc << 17
	}
	crossingSink.Store(acc)
}

// Kernel is the shared monolithic kernel all native processes run on.
type Kernel struct {
	FS *host.FileSystem

	mu       sync.Mutex
	procs    map[int]*Process
	nextPID  int
	programs map[string]api.Program

	listeners map[api.SockAddr]*host.Listener

	// takeoverEpoch backs api.Elector: native has no coordination plane to
	// elect through, so a monotonic counter in the shared kernel provides
	// the same fencing guarantee a real election round does on Graphene.
	takeoverEpoch int64

	sysv *sysvTables

	// Wrap, when set, decorates every process handed to application code
	// (the KVM personality wraps guest processes with its device model).
	Wrap func(*Process) api.OS
}

// wrapped applies the Wrap hook (identity when unset).
func (k *Kernel) wrapped(p *Process) api.OS {
	if k.Wrap != nil {
		return k.Wrap(p)
	}
	return p
}

// NewKernel boots an empty native kernel.
func NewKernel() *Kernel {
	return &Kernel{
		FS:        host.NewFileSystem(),
		procs:     make(map[int]*Process),
		programs:  make(map[string]api.Program),
		listeners: make(map[api.SockAddr]*host.Listener),
		sysv:      newSysvTables(),
	}
}

// RegisterProgram installs a binary, mirroring liblinux.Runtime.
func (k *Kernel) RegisterProgram(path string, prog api.Program) error {
	path = host.CleanPath(path)
	k.mu.Lock()
	k.programs[path] = prog
	k.mu.Unlock()
	dir := path
	if i := strings.LastIndexByte(path, '/'); i > 0 {
		dir = path[:i]
		if err := k.FS.MkdirAll(dir, 0755); err != nil && err != api.EEXIST {
			return err
		}
	}
	return k.FS.WriteFile(path, []byte("#!native-program\n"), 0755)
}

func (k *Kernel) lookupProgram(path string) (api.Program, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	p, ok := k.programs[host.CleanPath(path)]
	return p, ok
}

// LaunchResult mirrors liblinux.LaunchResult.
type LaunchResult struct {
	Process  *Process
	Done     chan struct{}
	exitCode int
}

// ExitCode returns the root process's exit status (valid after Done).
func (l *LaunchResult) ExitCode() int { return l.exitCode }

// Launch starts path's program as a new top-level process.
func (k *Kernel) Launch(path string, argv []string) (*LaunchResult, error) {
	prog, ok := k.lookupProgram(path)
	if !ok {
		return nil, api.ENOENT
	}
	p := k.newProcess(nil)
	p.programPath = path
	res := &LaunchResult{Process: p, Done: make(chan struct{})}
	go func() {
		code := p.runProgram(prog, path, argv)
		p.doExit(code, 0)
		res.exitCode = p.exitCode
		close(res.Done)
	}()
	return res, nil
}

func (k *Kernel) newProcess(parent *Process) *Process {
	k.mu.Lock()
	k.nextPID++
	pid := k.nextPID
	k.mu.Unlock()
	p := &Process{
		kernel:   k,
		pid:      pid,
		cwd:      "/",
		env:      make(map[string]string),
		fds:      make(map[int]*fdesc),
		children: make(map[int]*childState),
		handlers: make(map[api.Signal]api.SigHandler),
		disp:     make(map[api.Signal]string),
	}
	p.childCV = sync.NewCond(&p.mu)
	if parent != nil {
		p.ppid = parent.pid
		parent.mu.Lock()
		p.pgid = parent.pgid
		parent.mu.Unlock()
		p.as = parent.as.ForkCOW()
		p.cwd = parent.cwd
		for key, v := range parent.env {
			p.env[key] = v
		}
		parent.mu.Lock()
		for fd, d := range parent.fds {
			p.fds[fd] = d // shared open file descriptions, as fork does
			d.ref()
		}
		p.brk, p.brkEnd = parent.brk, parent.brkEnd
		parent.mu.Unlock()
	} else {
		p.as = host.NewAddressSpace()
		p.brk, p.brkEnd = brkBase, brkBase
		// Load the program image + libc: ~352 KB resident for a minimal
		// process (§6.2's native "hello world" floor). Forked children
		// share it copy-on-write, as Linux does.
		if addr, err := p.as.Alloc(imageBase, imageBytes, api.ProtRead|api.ProtWrite|api.ProtExec); err == nil {
			one := []byte{0x90}
			for off := uint64(0); off < imageBytes; off += host.PageSize {
				_ = p.as.Write(addr+off, one)
			}
		}
		// Standard descriptors on the controlling terminal.
		for fd := 0; fd <= 2; fd++ {
			p.fds[fd] = &fdesc{kind: fdTTY, path: "tty", refs: 1}
		}
	}
	k.mu.Lock()
	k.procs[pid] = p
	k.mu.Unlock()
	return p
}

func (k *Kernel) process(pid int) *Process {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.procs[pid]
}

// groupMembers returns the live processes in process group pgid.
func (k *Kernel) groupMembers(pgid int) []*Process {
	k.mu.Lock()
	defer k.mu.Unlock()
	var out []*Process
	for _, p := range k.procs {
		p.mu.Lock()
		in := p.pgid == pgid
		p.mu.Unlock()
		if in {
			out = append(out, p)
		}
	}
	return out
}

func (k *Kernel) removeProcess(pid int) {
	k.mu.Lock()
	delete(k.procs, pid)
	k.mu.Unlock()
}

// Kernel socket listeners reuse host.Listener (shared backlog + co-holder
// semantics) so listener handle passing behaves identically on every
// personality; the native kernel just keys them by address in its own map.

// brkBase matches liblinux's data segment origin.
const brkBase = 0x1000_0000

// imageBase/Bytes place the program + libc image (§6.2's 352 KB native
// "hello world" floor) outside the brk and mmap ranges.
const (
	imageBase  = 0x7000_0000_0000
	imageBytes = 352 * 1024
)

// ResidentBytes sums the resident memory of every live process — the
// native column of Figure 4. Copy-on-write pages shared across fork are
// charged fractionally, matching how KSM-style dedup is credited in §6.2.
func (k *Kernel) ResidentBytes() uint64 {
	k.mu.Lock()
	procs := make([]*Process, 0, len(k.procs))
	for _, p := range k.procs {
		procs = append(procs, p)
	}
	k.mu.Unlock()
	var total uint64
	for _, p := range procs {
		total += p.as.ResidentBytes()
	}
	return total
}

// execRequest / processExited mirror liblinux's exec/exit unwinding.
type execRequest struct {
	path string
	argv []string
}

type processExited struct{}

// itoa is a local integer formatter.
func itoa(v int) string { return strconv.Itoa(v) }
