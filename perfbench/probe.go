package main

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphene/internal/host"
	"graphene/internal/ipc"
	"graphene/internal/liblinux"
	"graphene/internal/metrics"
)

// libLinux calls the traced session times on the benchmark's own drivers.
const (
	callFork = iota
	callSpawn
	callWait
	callPipe
	callRead
	callWrite
	callMsgsnd
	callMsgrcv
	callSemop
	callConnect
	callPoll
	callClose
	numCalls
)

var callNames = [numCalls]string{
	"fork", "spawn", "wait", "pipe", "read", "write",
	"msgsnd", "msgrcv", "semop", "connect", "poll", "close",
}

// The harvester checks every recorder each pollEvery. Reading a recorder
// copies its whole ring, so each is read only about when half its ring is
// new: at its last observed event rate, or sooner once the ring has
// wrapped and its drop count shows half a ring unread.
const (
	pollEvery   = time.Millisecond
	maxReadGap  = 50 * time.Millisecond
	initialRate = 1e6 // events per second assumed before the first read
)

// probe is the traced session's instrumentation, all of it outside the
// program: call timers on the drivers' OS handles, a timing policy around
// the monitor, and a reader that drains every picoprocess's flight
// recorder before its ring wraps.
type probe struct {
	callNS   [numCalls]atomic.Int64
	callErrs atomic.Int64

	checks, checkNS, denials atomic.Int64

	mu       sync.Mutex
	recs     map[*host.Picoprocess]*cursor
	counting bool
	ev       eventCounts

	helpers []*ipc.Helper // drivers whose ring gauges are read

	stop chan struct{}
	done chan struct{}
}

// cursor is how far one picoprocess's recorder has been read.
type cursor struct {
	rec    *host.FlightRecorder
	last   uint64    // sequence number of the last event read
	readAt time.Time // when it was last read
	due    time.Time // when it should next be read
	dead   bool
}

// eventCounts are the flight-recorder tallies of the measured window.
type eventCounts struct {
	streamOps, streamBytes, serves, dropped int64
}

func (e *eventCounts) add(o eventCounts) {
	e.streamOps += o.streamOps
	e.streamBytes += o.streamBytes
	e.serves += o.serves
	e.dropped += o.dropped
}

func newProbe() *probe {
	tp := &probe{
		recs: make(map[*host.Picoprocess]*cursor),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go tp.harvestLoop()
	return tp
}

func (tp *probe) call(c int, start time.Time, err error) {
	tp.callNS[c].Add(int64(time.Since(start)))
	if err != nil {
		tp.callErrs.Add(1)
	}
}

func (tp *probe) track(p *host.Picoprocess) {
	tp.mu.Lock()
	if tp.recs[p] == nil {
		tp.recs[p] = &cursor{}
	}
	tp.mu.Unlock()
}

// retire marks p dead; the next poll reads its recorder one last time.
func (tp *probe) retire(p *host.Picoprocess) {
	tp.mu.Lock()
	if c := tp.recs[p]; c != nil {
		c.dead = true
	}
	tp.mu.Unlock()
}

// watchRing registers a driver's helper so its ring hit ratio is read.
func (tp *probe) watchRing(p *liblinux.Process) {
	tp.mu.Lock()
	tp.helpers = append(tp.helpers, p.Helper())
	tp.mu.Unlock()
}

func (tp *probe) harvestLoop() {
	defer close(tp.done)
	t := time.NewTicker(pollEvery)
	defer t.Stop()
	for {
		select {
		case <-tp.stop:
			return
		case <-t.C:
			tp.harvest(false)
		}
	}
}

// close stops the harvester and waits for it.
func (tp *probe) close() {
	close(tp.stop)
	<-tp.done
}

// harvest reads the recorders that are due, or all of them when all is
// set. In the measured window it counts stream and serve events, and
// counts as dropped any event a ring overwrote before it was read.
func (tp *probe) harvest(all bool) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	now := time.Now()
	for p, c := range tp.recs {
		rec := p.TraceRecorder()
		if rec != c.rec {
			c.rec, c.last, c.readAt, c.due = rec, 0, now, now
		}
		if rec == nil {
			if c.dead {
				delete(tp.recs, p)
			}
			continue
		}
		ring := uint64(rec.Cap())
		if !all && !c.dead && now.Before(c.due) {
			wrapped := rec.Dropped()
			if wrapped == 0 || wrapped+ring-c.last < ring/2 {
				continue
			}
		}
		first := c.last
		for _, ev := range rec.Events() {
			if ev.Seq <= c.last {
				continue
			}
			if tp.counting {
				tp.ev.dropped += int64(ev.Seq - c.last - 1)
				switch ev.Kind {
				case host.EvStreamRead, host.EvStreamWrite:
					tp.ev.streamOps++
					tp.ev.streamBytes += int64(ev.Arg)
				case host.EvRPCServe:
					tp.ev.serves++
				}
			}
			c.last = ev.Seq
		}
		if c.dead {
			delete(tp.recs, p)
			continue
		}
		rate := initialRate
		if dt := now.Sub(c.readAt).Seconds(); dt > 0 && c.last > first {
			rate = float64(c.last-first) / dt
		}
		gap := time.Duration(float64(ring/2) / rate * float64(time.Second))
		c.readAt, c.due = now, now.Add(min(max(gap, pollEvery), maxReadGap))
	}
}

// setCounting reads every recorder, then starts or stops counting, so the
// tallies hold exactly the events recorded between the two calls.
func (tp *probe) setCounting(on bool) {
	tp.harvest(true)
	tp.mu.Lock()
	tp.counting = on
	tp.mu.Unlock()
}

// takeEvents returns and clears the tallies.
func (tp *probe) takeEvents() eventCounts {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	ev := tp.ev
	tp.ev = eventCounts{}
	return ev
}

// ringOps sums the watched helpers' ring gauges: operations that tried
// the kernel-bypass ring, and how many of them it served.
func (tp *probe) ringOps() (ops, hits float64) {
	tp.mu.Lock()
	helpers := append([]*ipc.Helper(nil), tp.helpers...)
	tp.mu.Unlock()
	for _, h := range helpers {
		pid := strconv.FormatInt(h.GuestPID, 10)
		unreg := h.RegisterGauges()
		var n, pct float64
		for _, g := range metrics.Default.Snapshot().Gauges {
			switch g.Name {
			case "ipc.ring_ops.pid" + pid:
				n = float64(g.Value)
			case "ipc.ring_hit_pct.pid" + pid:
				pct = float64(g.Value)
			}
		}
		unreg()
		ops += n
		hits += n * pct / 100
	}
	return ops, hits
}

// counters is a point-in-time read of the program's own counters and the
// probe's timers; a window keeps the difference of two reads.
type counters struct {
	sysN, sysNS float64 // libLinux syscall shim histograms (sys.*)
	rpcN, rpcNS float64 // RPC client histograms (rpc.*)
	gate        float64 // host syscall-gate entries
	failovers   float64
	rpcTimeouts float64
	ringOps     float64
	ringHits    float64

	callNS                             [numCalls]float64
	callErrs, checks, checkNS, denials float64
}

func readCounters(e *env) counters {
	var c counters
	for _, h := range metrics.Default.Snapshot().Histograms {
		n := float64(h.Count)
		switch {
		case strings.HasPrefix(h.Name, "sys."):
			c.sysN += n
			c.sysNS += n * h.Mean
		case strings.HasPrefix(h.Name, "rpc."):
			c.rpcN += n
			c.rpcNS += n * h.Mean
		}
	}
	c.gate = float64(e.Kernel.SyscallCount())
	fc := ipc.ReadFailoverCounters()
	c.failovers, c.rpcTimeouts = float64(fc.Failovers), float64(fc.RPCTimeouts)
	if tp := e.tp; tp != nil {
		c.ringOps, c.ringHits = tp.ringOps()
		for i := range c.callNS {
			c.callNS[i] = float64(tp.callNS[i].Load())
		}
		c.callErrs, c.checks = float64(tp.callErrs.Load()), float64(tp.checks.Load())
		c.checkNS, c.denials = float64(tp.checkNS.Load()), float64(tp.denials.Load())
	}
	return c
}

// combine returns c + sign*o, field by field.
func (c counters) combine(o counters, sign float64) counters {
	c.sysN += sign * o.sysN
	c.sysNS += sign * o.sysNS
	c.rpcN += sign * o.rpcN
	c.rpcNS += sign * o.rpcNS
	c.gate += sign * o.gate
	c.failovers += sign * o.failovers
	c.rpcTimeouts += sign * o.rpcTimeouts
	c.ringOps += sign * o.ringOps
	c.ringHits += sign * o.ringHits
	for i := range c.callNS {
		c.callNS[i] += sign * o.callNS[i]
	}
	c.callErrs += sign * o.callErrs
	c.checks += sign * o.checks
	c.checkNS += sign * o.checkNS
	c.denials += sign * o.denials
	return c
}
