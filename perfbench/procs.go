package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"graphene/internal/api"
	"graphene/internal/liblinux"
)

// procs: a closed loop of process creation by one guest driver. Each op
// maps and dirties a fresh working set of 4 KiB to 1 MiB, makes a pipe and
// a child, reads the byte the child writes, and reaps it. Three ops in
// four fork (the memory image is checkpointed and shipped); one in four
// spawns a registered program (the zygote path ships no memory).

var procsWorkload = workload{name: "procs", setup: setupProcs}

const (
	procsDriver    = "/bin/perfbench-procs"
	procsChild     = "/bin/perfbench-child"
	procsTraceRing = 4096
	procsWarmup    = 50 // ops run in set-up, before the window
	// procsOps is the op list, and the most ops one window runs: every
	// fork leaves about half a MiB of live heap behind (README.md), so a
	// 2 s window at the measured rate would hold about 1.5 GiB.
	procsOps      = 1000
	pageSize      = 4096
	maxDirtyPages = 256 // 1 MiB
	// childWriteFailed is a child's exit status when its pipe write
	// failed; seeded statuses stay below it.
	childWriteFailed = 120
)

type procOp struct {
	spawn bool
	dirty int  // bytes of fresh memory written before the child is made
	b     byte // byte the child writes to the pipe
	code  int  // the child's exit status
}

// genProcOps makes the op list and the bytes written into working sets.
// Working-set sizes are the quantiles of a log-uniform size in whole
// pages, dealt out in a seeded order.
func genProcOps(seed int64) ([]procOp, []byte) {
	r := rand.New(rand.NewSource(seed))
	kinds := mix(r, procsOps, 3, 1) // kind 1 spawns
	pages := spaced(r, procsOps, 0, 1<<16)
	ops := make([]procOp, procsOps)
	for i := range ops {
		n := math.Round(math.Exp(float64(pages[i]) / (1 << 16) * math.Log(maxDirtyPages)))
		ops[i] = procOp{
			spawn: kinds[i] == 1,
			dirty: int(n) * pageSize,
			b:     byte(r.Intn(256)),
			code:  r.Intn(100),
		}
	}
	pattern := make([]byte, maxDirtyPages*pageSize)
	r.Read(pattern)
	return ops, pattern
}

type procsSession struct {
	e       *env
	ops     []procOp
	pattern []byte
	root    *liblinux.LaunchResult
	ready   chan error
	start   chan time.Time // carries the window's deadline; closed to stop
	done    chan tally
}

func setupProcs(seed int64, tp *probe) (session, error) {
	ops, pattern := genProcOps(seed)
	s := &procsSession{
		ops: ops, pattern: pattern,
		ready: make(chan error, 1),
		start: make(chan time.Time),
		done:  make(chan tally, 1),
	}
	e, err := boot(map[string]api.Program{procsDriver: s.driver, procsChild: s.child}, tp, procsTraceRing)
	if err != nil {
		return nil, err
	}
	s.e = e
	if s.root, err = e.Launch(procsDriver, nil); err != nil {
		return nil, fmt.Errorf("launch procs driver: %w", err)
	}
	if err := awaitReady(s.ready, s.root); err != nil {
		return nil, fmt.Errorf("procs warm-up: %w", err)
	}
	return s, nil
}

// awaitReady waits for a driver to finish its warm-up.
func awaitReady(ready <-chan error, root *liblinux.LaunchResult) error {
	select {
	case err := <-ready:
		return err
	case <-root.Done:
		return fmt.Errorf("driver exited with status %d before it was ready", root.ExitCode())
	case <-time.After(setupTimeout):
		return errors.New("driver not ready in time")
	}
}

// setupTimeout bounds one set-up; opTimeout bounds how long a window may
// overrun its deadline while its last ops complete.
const (
	setupTimeout = 60 * time.Second
	opTimeout    = 30 * time.Second
)

func (s *procsSession) env() *env { return s.e }

func (s *procsSession) driver(p api.OS, _ []string) int {
	s.e.watch(p)
	g := s.e.os(p)
	buf := make([]byte, 1)
	for i := 0; i < procsWarmup; i++ {
		if err := s.op(g, s.ops[i], buf); err != nil {
			s.ready <- fmt.Errorf("op %d: %w", i, err)
			return 1
		}
	}
	s.ready <- nil
	deadline, ok := <-s.start
	if !ok {
		return 0
	}
	var t tally
	begin := time.Now()
	for _, op := range s.ops {
		opStart := time.Now()
		if !opStart.Before(deadline) {
			break
		}
		cpu0 := s.e.opCPU()
		err := s.op(g, op, buf)
		class := classFork
		if op.spawn {
			class = classSpawn
		}
		t.record(class, time.Since(opStart), s.e.opCPU()-cpu0, err)
	}
	t.elapsed = time.Since(begin)
	s.done <- t
	<-s.start // stay up until close, so the window's end state can be read
	return 0
}

// op runs one process-creation op and checks the child's byte and status.
func (s *procsSession) op(p api.OS, op procOp, buf []byte) error {
	size := uint64(op.dirty)
	addr, err := p.Mmap(0, size, api.ProtRead|api.ProtWrite)
	if err != nil {
		return fmt.Errorf("mmap: %w", err)
	}
	if err := p.MemWrite(addr, s.pattern[:op.dirty]); err != nil {
		return fmt.Errorf("dirty working set: %w", err)
	}
	r, w, err := p.Pipe()
	if err != nil {
		return fmt.Errorf("pipe: %w", err)
	}
	var pid int
	if op.spawn {
		pid, err = p.Spawn(procsChild, []string{procsChild, strconv.Itoa(w), strconv.Itoa(int(op.b)), strconv.Itoa(op.code)})
	} else {
		pid, err = p.Fork(func(c api.OS) {
			if _, err := c.Write(w, []byte{op.b}); err != nil {
				c.Exit(childWriteFailed)
			}
			c.Exit(op.code)
		})
	}
	if err != nil {
		return errors.Join(fmt.Errorf("create child: %w", err), p.Close(r), p.Close(w), p.Munmap(addr, size))
	}
	if err := p.Close(w); err != nil {
		return fmt.Errorf("close pipe write end: %w", err)
	}
	n, err := p.Read(r, buf)
	if err != nil {
		return fmt.Errorf("read pipe: %w", err)
	}
	if err := p.Close(r); err != nil {
		return fmt.Errorf("close pipe read end: %w", err)
	}
	res, err := p.Wait(pid)
	if err != nil {
		return fmt.Errorf("wait %d: %w", pid, err)
	}
	if err := p.Munmap(addr, size); err != nil {
		return fmt.Errorf("munmap: %w", err)
	}
	switch {
	case n != 1 || buf[0] != op.b:
		return wrong("child %d wrote %v, want [%d]", pid, buf[:n], op.b)
	case res.PID != pid || res.ExitCode != op.code || res.Signaled != 0:
		return wrong("reaped %+v, want pid %d status %d", res, pid, op.code)
	}
	return nil
}

// child is the spawned program: it writes argv[2] to fd argv[1] and exits
// with status argv[3].
func (s *procsSession) child(p api.OS, argv []string) int {
	if len(argv) != 4 {
		return childWriteFailed
	}
	fd, err1 := strconv.Atoi(argv[1])
	b, err2 := strconv.Atoi(argv[2])
	code, err3 := strconv.Atoi(argv[3])
	if err1 != nil || err2 != nil || err3 != nil {
		return childWriteFailed
	}
	if _, err := s.e.os(p).Write(fd, []byte{byte(b)}); err != nil {
		return childWriteFailed
	}
	return code
}

func (s *procsSession) run(d time.Duration) (tally, error) {
	s.start <- time.Now().Add(d)
	select {
	case t := <-s.done:
		return t, nil
	case <-time.After(d + opTimeout):
		return tally{}, errors.New("procs driver overran its window")
	}
}

func (s *procsSession) close() error {
	close(s.start)
	return awaitExit("procs driver", s.root, opTimeout)
}
