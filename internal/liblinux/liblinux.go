// Package liblinux implements the Graphene library OS ("libLinux" in the
// paper): a Linux personality built entirely on the PAL's 43-call host ABI.
// Each picoprocess runs one LibOS instance; instances collaborate over RPC
// streams (internal/ipc) to present the application with a single, shared
// POSIX OS — PID namespaces, signals, exit notification, System V IPC —
// while servicing everything possible from local library state (§4).
package liblinux

import (
	"fmt"
	"sync"

	"graphene/internal/api"
	"graphene/internal/host"
	"graphene/internal/ipc"
	"graphene/internal/monitor"
	"graphene/internal/pal"
)

// Runtime is the per-host Graphene installation: the program registry (the
// "binaries" an application can exec) and the trusted launch path through
// the reference monitor.
type Runtime struct {
	kernel *host.Kernel
	mon    *monitor.Monitor

	mu       sync.Mutex
	programs map[string]api.Program
}

// NewRuntime creates a runtime over the given host kernel and monitor.
func NewRuntime(k *host.Kernel, m *monitor.Monitor) *Runtime {
	return &Runtime{
		kernel:   k,
		mon:      m,
		programs: make(map[string]api.Program),
	}
}

// Kernel exposes the host kernel (test and launcher support).
func (r *Runtime) Kernel() *host.Kernel { return r.kernel }

// Monitor exposes the reference monitor.
func (r *Runtime) Monitor() *monitor.Monitor { return r.mon }

// RegisterProgram installs a program at a file system path, standing in
// for an ELF binary (see DESIGN.md). A stub file is written to the host FS
// so stat/open and manifest checks behave as they would for a real binary.
func (r *Runtime) RegisterProgram(path string, prog api.Program) error {
	path = host.CleanPath(path)
	r.mu.Lock()
	r.programs[path] = prog
	r.mu.Unlock()
	dir := parentDir(path)
	if dir != "/" {
		if err := r.kernel.FS.MkdirAll(dir, 0755); err != nil && err != api.EEXIST {
			return err
		}
	}
	return r.kernel.FS.WriteFile(path, []byte("#!graphene-program\n"), 0755)
}

func parentDir(p string) string {
	for i := len(p) - 1; i > 0; i-- {
		if p[i] == '/' {
			return p[:i]
		}
	}
	return "/"
}

func (r *Runtime) lookupProgram(path string) (api.Program, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	prog, ok := r.programs[host.CleanPath(path)]
	return prog, ok
}

// LaunchResult describes a launched root process.
type LaunchResult struct {
	Process *Process
	// Done is closed when the root process exits; ExitCode is then valid.
	Done     chan struct{}
	exitCode int
}

// ExitCode returns the root process's exit status (valid after Done).
func (l *LaunchResult) ExitCode() int { return l.exitCode }

// Launch boots path's program as the root process of a fresh sandbox
// governed by manifest — the reference monitor's application launch path
// (§3). The root LibOS instance becomes the sandbox's namespace leader
// with guest PID 1.
func (r *Runtime) Launch(man *monitor.Manifest, path string, argv []string) (*LaunchResult, error) {
	prog, ok := r.lookupProgram(path)
	if !ok {
		return nil, api.ENOENT
	}
	proc, _, err := r.mon.Launch(man)
	if err != nil {
		return nil, err
	}
	p := pal.New(r.kernel, proc, r.mon)
	lib, err := newProcess(r, p, 1, 0, "", "")
	if err != nil {
		proc.Exit(127)
		return nil, err
	}
	helper, err := ipc.NewLeader(p, lib.svc(), 1)
	if err != nil {
		proc.Exit(127)
		return nil, err
	}
	lib.helper = helper
	lib.programPath = path
	lib.argv = argv

	res := &LaunchResult{Process: lib, Done: make(chan struct{})}
	proc.NewThread(func(tid int) {
		code := lib.runProgram(prog, path, argv)
		lib.doExit(code, 0)
		res.exitCode = lib.exitCode
		close(res.Done)
	})
	return res, nil
}

// coordService is the upcall surface of a dedicated coordinator
// picoprocess: it hosts no application, so signals and exit reports aimed
// at it are dropped and /proc reads answer ENOENT.
type coordService struct{}

func (coordService) DeliverSignal(int64, api.Signal) api.Errno  { return 0 }
func (coordService) NotifyExit(int64, int64, api.Signal)        {}
func (coordService) ProcMeta(int64, string) (string, api.Errno) { return "", api.ENOENT }

// LaunchSharded boots path's program as the root of a sandbox whose
// namespace plane is partitioned across `shards` coordinator
// picoprocesses. The root doubles as shard 0's coordinator (guest PID 1,
// like the classic leader); shards 1..N-1 are dedicated coordinator
// picoprocesses forked before the program starts, holding guest PIDs
// 2..N. Children forked by the application inherit the full shard
// address table through the checkpoint meta. shards <= 1 degenerates to
// the classic single-coordinator Launch.
func (r *Runtime) LaunchSharded(man *monitor.Manifest, path string, argv []string, shards int) (*LaunchResult, error) {
	if shards <= 1 {
		return r.Launch(man, path, argv)
	}
	prog, ok := r.lookupProgram(path)
	if !ok {
		return nil, api.ENOENT
	}
	proc, _, err := r.mon.Launch(man)
	if err != nil {
		return nil, err
	}
	p := pal.New(r.kernel, proc, r.mon)
	lib, err := newProcess(r, p, 1, 0, "", "")
	if err != nil {
		proc.Exit(127)
		return nil, err
	}
	addrs := make([]string, shards)
	helper, err := ipc.NewShardLeader(p, lib.svc(), 1, 0, shards, addrs)
	if err != nil {
		proc.Exit(127)
		return nil, err
	}
	addrs[0] = helper.Addr
	lib.helper = helper
	coords := []*ipc.Helper{helper}
	for i := 1; i < shards; i++ {
		ready := make(chan *pal.PAL, 1)
		if _, _, err := p.DkProcessCreate(func(c *pal.PAL, _ *host.Stream) {
			ready <- c
			select {} // coordinators serve from their helper thread forever
		}, false); err != nil {
			proc.Exit(127)
			return nil, err
		}
		cp := <-ready
		ch, err := ipc.NewShardLeader(cp, coordService{}, int64(i+1), i, shards, addrs)
		if err != nil {
			proc.Exit(127)
			return nil, err
		}
		addrs[i] = ch.Addr
		// Back-fill the routing tables of the shards booted before this one.
		for _, c := range coords {
			c.SetShardLeader(i, ch.Addr)
		}
		coords = append(coords, ch)
	}
	lib.programPath = path
	lib.argv = argv

	res := &LaunchResult{Process: lib, Done: make(chan struct{})}
	proc.NewThread(func(tid int) {
		code := lib.runProgram(prog, path, argv)
		lib.doExit(code, 0)
		res.exitCode = lib.exitCode
		close(res.Done)
	})
	return res, nil
}

// execRequest is panicked by Exec and recovered by runProgram, modeling
// execve's replace-the-image semantics on a Go stack.
type execRequest struct {
	path string
	argv []string
}

// runProgram runs prog and any exec chain, returning the final exit code.
func (p *Process) runProgram(prog api.Program, path string, argv []string) int {
	for {
		code, execReq := p.runOnce(prog, argv)
		if execReq == nil {
			return code
		}
		next, ok := p.rt.lookupProgram(execReq.path)
		if !ok {
			return 127
		}
		p.resetForExec(execReq.path, execReq.argv)
		prog, path, argv = next, execReq.path, execReq.argv
		_ = path
	}
}

func (p *Process) runOnce(prog api.Program, argv []string) (code int, exec *execRequest) {
	defer func() {
		if r := recover(); r != nil {
			if req, ok := r.(execRequest); ok {
				exec = &req
				return
			}
			if _, ok := r.(processExited); ok {
				code = p.exitRequested
				return
			}
			panic(r)
		}
	}()
	return prog(p, argv), nil
}

// processExited is panicked by Exit to unwind the program stack.
type processExited struct{}

// String implements fmt.Stringer for debugging.
func (r *Runtime) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return fmt.Sprintf("Runtime{%d programs}", len(r.programs))
}
