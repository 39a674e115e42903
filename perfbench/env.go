package main

import (
	"fmt"
	"time"

	"graphene/internal/api"
	"graphene/internal/bench"
	"graphene/internal/host"
	"graphene/internal/liblinux"
	"graphene/internal/monitor"
)

// env is one booted Graphene installation (internal/bench's: host kernel,
// reference monitor, libLinux runtime and the application suite under the
// permissive benchmark manifest) with the benchmark's guest drivers
// registered.
type env struct {
	*bench.GrapheneEnv
	tp *probe // nil on untraced sessions
}

// boot brings up Graphene with the reference monitor on. A traced session
// (tp != nil) wraps the monitor in a timing policy and gives the manifest
// a flight-recorder ring of traceRing events (the trace_buffer directive).
func boot(programs map[string]api.Program, tp *probe, traceRing int) (*env, error) {
	g, err := bench.NewGraphene()
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	for path, prog := range programs {
		if err := g.Runtime.RegisterProgram(path, prog); err != nil {
			return nil, fmt.Errorf("register %s: %w", path, err)
		}
	}
	if tp != nil {
		man := *g.Manifest
		man.TraceRing = traceRing
		g.Manifest = &man
		g.Kernel.SetPolicy(&timedPolicy{Monitor: g.Monitor, tp: tp})
	}
	return &env{GrapheneEnv: g, tp: tp}, nil
}

// opCPU reads the process CPU clock on traced sessions, which charge each
// op's CPU time to its class; untraced sessions skip the system call.
func (e *env) opCPU() time.Duration {
	if e.tp == nil {
		return 0
	}
	return cpuTime()
}

// os wraps a guest OS handle in the traced session's call timers.
func (e *env) os(p api.OS) api.OS {
	if e.tp == nil {
		return p
	}
	return timedOS{OS: p, tp: e.tp}
}

// watch registers a driver's process so the traced session reads its
// kernel-bypass ring counters.
func (e *env) watch(p api.OS) {
	if e.tp == nil {
		return
	}
	if t, ok := p.(timedOS); ok {
		p = t.OS
	}
	if lp, ok := p.(*liblinux.Process); ok {
		e.tp.watchRing(lp)
	}
}

// awaitExit waits for a root process and checks its exit status.
func awaitExit(what string, res *liblinux.LaunchResult, d time.Duration) error {
	select {
	case <-res.Done:
	case <-time.After(d):
		return fmt.Errorf("%s did not exit within %v", what, d)
	}
	if code := res.ExitCode(); code != 0 {
		return fmt.Errorf("%s exited with status %d", what, code)
	}
	return nil
}

// timedPolicy is the traced session's reference monitor: it embeds the
// real monitor, as the repository's no-RM policy does, and times every
// check while keeping the monitor's decisions. It also tells the probe
// about every picoprocess so no flight recorder goes unread.
type timedPolicy struct {
	*monitor.Monitor
	tp *probe
}

func (t *timedPolicy) check(start time.Time, err error) error {
	t.tp.checks.Add(1)
	t.tp.checkNS.Add(int64(time.Since(start)))
	if err != nil {
		t.tp.denials.Add(1)
	}
	return err
}

func (t *timedPolicy) CheckOpen(p *host.Picoprocess, path string, write bool) error {
	start := time.Now()
	return t.check(start, t.Monitor.CheckOpen(p, path, write))
}

func (t *timedPolicy) TranslatePath(p *host.Picoprocess, path string) (string, error) {
	start := time.Now()
	out, err := t.Monitor.TranslatePath(p, path)
	return out, t.check(start, err)
}

func (t *timedPolicy) CheckStreamConnect(p *host.Picoprocess, owner int) error {
	start := time.Now()
	return t.check(start, t.Monitor.CheckStreamConnect(p, owner))
}

func (t *timedPolicy) CheckBulkIPC(p *host.Picoprocess, creator int) error {
	start := time.Now()
	return t.check(start, t.Monitor.CheckBulkIPC(p, creator))
}

func (t *timedPolicy) CheckProcessCreate(parent *host.Picoprocess) error {
	start := time.Now()
	return t.check(start, t.Monitor.CheckProcessCreate(parent))
}

func (t *timedPolicy) CheckNetBind(p *host.Picoprocess, addr api.SockAddr) error {
	start := time.Now()
	return t.check(start, t.Monitor.CheckNetBind(p, addr))
}

func (t *timedPolicy) CheckNetConnect(p *host.Picoprocess, addr api.SockAddr) error {
	start := time.Now()
	return t.check(start, t.Monitor.CheckNetConnect(p, addr))
}

func (t *timedPolicy) OnProcessCreate(parent, child *host.Picoprocess, newSandbox bool) {
	t.Monitor.OnProcessCreate(parent, child, newSandbox)
	t.tp.track(child)
}

func (t *timedPolicy) OnProcessExit(p *host.Picoprocess) {
	t.Monitor.OnProcessExit(p)
	t.tp.retire(p)
}

// timedOS times the libLinux calls the benchmark's own drivers make. It
// forwards the optional poll and thread surfaces the generator needs.
type timedOS struct {
	api.OS
	tp *probe
}

func (o timedOS) Fork(child func(api.OS)) (int, error) {
	start := time.Now()
	pid, err := o.OS.Fork(func(c api.OS) { child(timedOS{OS: c, tp: o.tp}) })
	o.tp.call(callFork, start, err)
	return pid, err
}

func (o timedOS) Spawn(path string, argv []string) (int, error) {
	start := time.Now()
	pid, err := o.OS.Spawn(path, argv)
	o.tp.call(callSpawn, start, err)
	return pid, err
}

func (o timedOS) Wait(pid int) (api.WaitResult, error) {
	start := time.Now()
	res, err := o.OS.Wait(pid)
	o.tp.call(callWait, start, err)
	return res, err
}

func (o timedOS) Pipe() (int, int, error) {
	start := time.Now()
	r, w, err := o.OS.Pipe()
	o.tp.call(callPipe, start, err)
	return r, w, err
}

func (o timedOS) Read(fd int, buf []byte) (int, error) {
	start := time.Now()
	n, err := o.OS.Read(fd, buf)
	o.tp.call(callRead, start, err)
	return n, err
}

func (o timedOS) Write(fd int, buf []byte) (int, error) {
	start := time.Now()
	n, err := o.OS.Write(fd, buf)
	o.tp.call(callWrite, start, err)
	return n, err
}

func (o timedOS) Close(fd int) error {
	start := time.Now()
	err := o.OS.Close(fd)
	o.tp.call(callClose, start, err)
	return err
}

func (o timedOS) Msgsnd(id int, mtype int64, data []byte, flags int) error {
	start := time.Now()
	err := o.OS.Msgsnd(id, mtype, data, flags)
	o.tp.call(callMsgsnd, start, err)
	return err
}

func (o timedOS) Msgrcv(id int, mtype int64, buf []byte, flags int) (int64, []byte, error) {
	start := time.Now()
	mt, data, err := o.OS.Msgrcv(id, mtype, buf, flags)
	o.tp.call(callMsgrcv, start, err)
	return mt, data, err
}

func (o timedOS) Semop(id int, ops []api.SemBuf) error {
	start := time.Now()
	err := o.OS.Semop(id, ops)
	o.tp.call(callSemop, start, err)
	return err
}

func (o timedOS) Connect(addr api.SockAddr) (int, error) {
	start := time.Now()
	fd, err := o.OS.Connect(addr)
	o.tp.call(callConnect, start, err)
	return fd, err
}

func (o timedOS) Poll(fds []int, timeoutMicros int64) (int, error) {
	poller, ok := o.OS.(api.Poller)
	if !ok {
		return 0, api.ENOSYS
	}
	start := time.Now()
	idx, err := poller.Poll(fds, timeoutMicros)
	o.tp.call(callPoll, start, err)
	return idx, err
}

func (o timedOS) SpawnThread(fn func()) error {
	threader, ok := o.OS.(api.Threader)
	if !ok {
		return api.ENOSYS
	}
	return threader.SpawnThread(fn)
}
