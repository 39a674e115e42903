package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"graphene/internal/api"
	"graphene/internal/host"
	"graphene/internal/liblinux"
)

// sysv: a closed loop of System V IPC between two picoprocesses. The
// server (the sandbox's first process) creates two queues and two
// semaphores, forks the client during set-up, and then follows the same
// op list as the client: it echoes each request message back on the
// reply queue, and answers each semaphore ping with a pong. Small
// messages fit a ring slot; large ones fall back to RPC.

var sysvWorkload = workload{name: "sysv", setup: setupSysv}

const (
	sysvDriver    = "/bin/perfbench-sysv"
	sysvTraceRing = 8192

	sysvOps      = 4000 // op list length, whole blocks; the window cycles through it
	sysvWarmup   = 5000 // ops run in set-up, before the window
	sysvPoolSize = 64 << 10
	// Of every 20 ops, 14 send a small message, 1 a large one and 5 are a
	// semaphore round trip. Large messages are rare, as the ring's design
	// note in internal/host/ring.go expects; no source gives the shares
	// otherwise: they only make sure every path runs (README.md).
	sysvSmallOps = 14
	sysvLargeOps = 1
	sysvSemOps   = 5
	// Small messages are Table 7's 16 bytes (internal/bench/table7.go).
	// Large ones are over one ring slot, so they take the RPC fallback,
	// and at most two slots' worth.
	sysvSmallSize = 16
	sysvLargeMin  = host.RingSlotData + 1
	sysvLargeMax  = 2 * host.RingSlotData

	mtypeData = 1
	mtypeStop = 2
)

type sysvOp struct {
	class     int // classSmall, classLarge or classSem
	off, size int // a message op sends pool[off:off+size]
}

type sysvIDs struct{ req, rep, ping, pong int }

var (
	semUp   = []api.SemBuf{{Op: 1}}
	semDown = []api.SemBuf{{Op: -1}}
)

func genSysvOps(seed int64) ([]sysvOp, []byte) {
	r := rand.New(rand.NewSource(seed))
	pool := make([]byte, sysvPoolSize)
	r.Read(pool)
	kinds := mix(r, sysvOps, sysvSmallOps, sysvLargeOps, sysvSemOps)
	blocks := sysvOps / (sysvSmallOps + sysvLargeOps + sysvSemOps)
	large := spaced(r, blocks*sysvLargeOps, sysvLargeMin, sysvLargeMax)
	ops := make([]sysvOp, sysvOps)
	for i, k := range kinds {
		switch k {
		case 0:
			ops[i] = sysvOp{class: classSmall, size: sysvSmallSize}
		case 1:
			ops[i] = sysvOp{class: classLarge, size: large[0]}
			large = large[1:]
		case 2:
			ops[i] = sysvOp{class: classSem}
			continue
		}
		ops[i].off = r.Intn(sysvPoolSize - ops[i].size)
	}
	return ops, pool
}

type sysvSession struct {
	e     *env
	ops   []sysvOp
	pool  []byte
	root  *liblinux.LaunchResult
	ready chan error
	start chan time.Time // carries the window's deadline; closed to stop
	done  chan tally
}

func setupSysv(seed int64, tp *probe) (session, error) {
	ops, pool := genSysvOps(seed)
	s := &sysvSession{
		ops: ops, pool: pool,
		ready: make(chan error, 1),
		start: make(chan time.Time),
		done:  make(chan tally, 1),
	}
	e, err := boot(map[string]api.Program{sysvDriver: s.server}, tp, sysvTraceRing)
	if err != nil {
		return nil, err
	}
	s.e = e
	if s.root, err = e.Launch(sysvDriver, nil); err != nil {
		return nil, fmt.Errorf("launch sysv server: %w", err)
	}
	if err := awaitReady(s.ready, s.root); err != nil {
		return nil, fmt.Errorf("sysv warm-up: %w", err)
	}
	return s, nil
}

func (s *sysvSession) env() *env { return s.e }

// server owns the queues and semaphores and serves the client forked from it.
func (s *sysvSession) server(p api.OS, _ []string) int {
	s.e.watch(p)
	g := s.e.os(p)
	ids, err := makeSysvObjects(g)
	if err != nil {
		s.ready <- err
		return 1
	}
	pid, err := g.Fork(func(c api.OS) { c.Exit(s.client(c, ids)) })
	if err != nil {
		s.ready <- fmt.Errorf("fork client: %w", err)
		return 1
	}
	serveErr := s.serve(g, ids)
	res, err := g.Wait(pid)
	if serveErr != nil || err != nil || res.ExitCode != 0 {
		return 1
	}
	return 0
}

func makeSysvObjects(g api.OS) (sysvIDs, error) {
	var ids sysvIDs
	var err error
	for _, o := range []struct {
		id  *int
		key int
		sem bool
	}{{&ids.req, 0x5eed01, false}, {&ids.rep, 0x5eed02, false}, {&ids.ping, 0x5eed03, true}, {&ids.pong, 0x5eed04, true}} {
		if o.sem {
			*o.id, err = g.Semget(o.key, 1, api.IPCCreat)
		} else {
			*o.id, err = g.Msgget(o.key, api.IPCCreat)
		}
		if err != nil {
			return ids, fmt.Errorf("create sysv object %#x: %w", o.key, err)
		}
	}
	return ids, nil
}

// serve follows the op list in lockstep with the client until the
// client's stop message.
func (s *sysvSession) serve(g api.OS, ids sysvIDs) error {
	for i := 0; ; i++ {
		if s.ops[i%len(s.ops)].class == classSem {
			if err := g.Semop(ids.ping, semDown); err != nil {
				return fmt.Errorf("semop ping: %w", err)
			}
			if err := g.Semop(ids.pong, semUp); err != nil {
				return fmt.Errorf("semop pong: %w", err)
			}
			continue
		}
		mt, data, err := g.Msgrcv(ids.req, 0, nil, 0)
		if err != nil {
			return fmt.Errorf("msgrcv request: %w", err)
		}
		if mt == mtypeStop {
			return nil
		}
		if err := g.Msgsnd(ids.rep, mtypeData, data, 0); err != nil {
			return fmt.Errorf("msgsnd reply: %w", err)
		}
	}
}

// client warms up, measures one window if asked, and then stops the
// server: it finishes semaphore ops up to the next message op, which the
// server is then waiting on, and sends the stop message in its place.
func (s *sysvSession) client(c api.OS, ids sysvIDs) int {
	s.e.watch(c)
	for i := 0; i < sysvWarmup; i++ {
		if err := s.op(c, ids, i); err != nil {
			s.ready <- fmt.Errorf("op %d: %w", i, err)
			return 1
		}
	}
	s.ready <- nil
	i := sysvWarmup
	if deadline, ok := <-s.start; ok {
		var t tally
		begin := time.Now()
		for ; ; i++ {
			opStart := time.Now()
			if !opStart.Before(deadline) {
				break
			}
			cpu0 := s.e.opCPU()
			err := s.op(c, ids, i)
			t.record(s.ops[i%len(s.ops)].class, time.Since(opStart), s.e.opCPU()-cpu0, err)
		}
		t.elapsed = time.Since(begin)
		s.done <- t
		<-s.start // stay up until close, so the window's end state can be read
	}
	for ; s.ops[i%len(s.ops)].class == classSem; i++ {
		if err := s.op(c, ids, i); err != nil {
			return 1
		}
	}
	if err := c.Msgsnd(ids.req, mtypeStop, []byte{0}, 0); err != nil {
		return 1
	}
	return 0
}

// op runs op i from the client: a semaphore ping-pong, or a request
// whose echoed reply must match it byte for byte.
func (s *sysvSession) op(c api.OS, ids sysvIDs, i int) error {
	op := s.ops[i%len(s.ops)]
	if op.class == classSem {
		if err := c.Semop(ids.ping, semUp); err != nil {
			return fmt.Errorf("semop ping: %w", err)
		}
		if err := c.Semop(ids.pong, semDown); err != nil {
			return fmt.Errorf("semop pong: %w", err)
		}
		return nil
	}
	msg := s.pool[op.off : op.off+op.size]
	if err := c.Msgsnd(ids.req, mtypeData, msg, 0); err != nil {
		return fmt.Errorf("msgsnd request: %w", err)
	}
	mt, data, err := c.Msgrcv(ids.rep, 0, nil, 0)
	if err != nil {
		return fmt.Errorf("msgrcv reply: %w", err)
	}
	if mt != mtypeData || !bytes.Equal(data, msg) {
		return wrong("reply type %d of %d bytes does not echo the %d-byte request", mt, len(data), len(msg))
	}
	return nil
}

func (s *sysvSession) run(d time.Duration) (tally, error) {
	s.start <- time.Now().Add(d)
	select {
	case t := <-s.done:
		return t, nil
	case <-time.After(d + opTimeout):
		return tally{}, errors.New("sysv client overran its window")
	}
}

func (s *sysvSession) close() error {
	close(s.start)
	return awaitExit("sysv server", s.root, opTimeout)
}
