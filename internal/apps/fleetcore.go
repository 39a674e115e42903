package apps

import (
	"strconv"

	"graphene/internal/api"
	"graphene/internal/host"
)

// fleetCore is the fleet supervisor's decision core: every timing- and
// placement-sensitive choice (respawn backoff, circuit breakers, wedge
// quarantine, power-of-two dispatch, elastic scaling) lives here as a
// deterministic state machine over slot records, an explicit clock value,
// and a seeded RNG. The live master (fleet.go) is an I/O shell around it:
// it feeds real time and real child exits in and applies the returned
// actions with real spawns and kills. The test harness (fleet_sim_test.go)
// drives the same core single-threaded on a fake clock, which is what
// makes the supervisor's timing behavior testable without real sleeps and
// the scaler's decision sequence reproducible from (FaultPlan, seed) alone.
//
// Locking: the core does not lock. The live shell guards it with the
// master mutex; the simulation is single-threaded.

// xorshift is the seeded RNG behind power-of-two-choices sampling. A
// local generator (not math/rand) so the dispatch decision sequence is
// part of the supervisor's deterministic surface.
type xorshift struct{ s uint64 }

func newXorshift(seed int64) xorshift {
	if seed == 0 {
		seed = 1 // xorshift has an absorbing zero state
	}
	return xorshift{s: uint64(seed)}
}

func (x *xorshift) next() uint64 {
	x.s ^= x.s << 13
	x.s ^= x.s >> 7
	x.s ^= x.s << 17
	return x.s
}

func (x *xorshift) intn(n int) int { return int(x.next() % uint64(n)) }

// fleetEvent is one scaler/handover decision in the core's flight log.
type fleetEvent struct {
	atUS int64
	what string
}

// coreActions is what one maintenance tick asks the shell to do.
type coreActions struct {
	spawn []*fleetSlot
	kill  []killReq
}

type fleetCore struct {
	cfg   fleetConfig
	slots []*fleetSlot
	rng   xorshift

	// target is the scaler's current desired worker count: slots with
	// id < target are kept alive, slots at or above it drain and retire.
	target   int
	draining bool

	spawns     int
	crashes    int
	dispatched int
	completed  int
	shed       int
	passErr    int
	scaleUps   int
	scaleDowns int

	scaleShedMark int   // shed count already attributed to a scaler look
	idleSinceUS   int64 // when the fleet last went fully idle
	lastUpUS      int64
	lastDownUS    int64

	events  []fleetEvent
	eligBuf []*fleetSlot

	// fault evaluates a named fault point, returning the host FaultAction
	// code (0 = none). The live shell routes it through api.FaultPointer;
	// the simulation evaluates a host.FaultPlan directly. Nil = no plan.
	fault func(point string) int
}

func newFleetCore(cfg fleetConfig, startUS int64) *fleetCore {
	c := &fleetCore{
		cfg:         cfg,
		rng:         newXorshift(cfg.seed),
		target:      cfg.nworkers,
		idleSinceUS: startUS,
	}
	// All slot records exist up front (identity = position): the scaler
	// moves the target prefix, it never reshapes the slice, so slot
	// pointers held by dispatch/status threads stay valid across scaling.
	for i := 0; i < cfg.maxWorkers; i++ {
		c.slots = append(c.slots, &fleetSlot{id: i, dispatchW: -1, statusR: -1})
	}
	return c
}

func (c *fleetCore) faultAt(point string) host.FaultAction {
	if c.fault == nil {
		return 0
	}
	return host.FaultAction(c.fault(point))
}

func (c *fleetCore) event(now int64, what string) {
	c.events = append(c.events, fleetEvent{atUS: now, what: what})
}

// eventLog renders the decision log ("t=<us> <what>" per entry) — the
// determinism gate compares two runs' logs verbatim.
func (c *fleetCore) eventLog() []string {
	out := make([]string, 0, len(c.events))
	for _, e := range c.events {
		out = append(out, "t="+strconv.FormatInt(e.atUS, 10)+" "+e.what)
	}
	return out
}

// eligible reports whether s can take another connection. A half-open
// probe worker is excluded: the probe tests whether the process survives
// minHealthyUS, so it needs no traffic, and routing real requests into a
// likely-still-crashing worker converts breaker probes into client errors.
func (s *fleetSlot) eligible(cap int) bool {
	return s.alive && !s.quarantined && !s.breakerOpen && !s.retiring && !s.probing &&
		s.inflight < cap
}

// pick places one connection by power-of-two-choices over dispatch
// credits: sample two distinct eligible workers, dispatch to the less
// loaded (ties to the lower id). O(1) sampling beats the previous
// least-loaded full scan at 64+ workers while keeping max load within
// O(log log n) of optimal; with ≤2 eligible workers it degenerates to the
// exact least-loaded choice.
func (c *fleetCore) pick() *fleetSlot {
	elig := c.eligBuf[:0]
	for _, s := range c.slots {
		if s.eligible(c.cfg.perWorkerCap) {
			elig = append(elig, s)
		}
	}
	c.eligBuf = elig // keep the grown capacity
	n := len(elig)
	switch n {
	case 0:
		return nil
	case 1:
		return elig[0]
	case 2:
		return lessLoaded(elig[0], elig[1])
	}
	i := c.rng.intn(n)
	j := c.rng.intn(n - 1)
	if j >= i {
		j++
	}
	return lessLoaded(elig[i], elig[j])
}

func lessLoaded(a, b *fleetSlot) *fleetSlot {
	if b.inflight < a.inflight || (b.inflight == a.inflight && b.id < a.id) {
		return b
	}
	return a
}

// onExit runs the crash bookkeeping when s's worker is reaped: respawn
// backoff per consecutive fast crash, breaker trip on a crash loop, and
// the planned-exit cases (drain, retire) that must not count as crashes.
func (c *fleetCore) onExit(s *fleetSlot, now int64) {
	retiring := s.retiring
	s.alive = false
	s.pid = 0
	s.inflight = 0
	s.quarantined = false
	s.retiring = false
	if c.draining {
		return
	}
	if retiring && s.id >= c.target {
		// A scale-down retirement completing, not a crash: the slot stays
		// parked outside the target prefix until the scaler wants it back.
		c.event(now, "retired slot="+strconv.Itoa(s.id))
		return
	}
	c.crashes++
	if now-s.startedUS < c.cfg.minHealthyUS {
		s.fastCrashes++
	} else {
		s.fastCrashes = 0
	}
	if s.probing || s.fastCrashes >= c.cfg.breakerTrips {
		// Crash-looping: open (or re-open) the breaker. The slot leaves
		// the fleet until a half-open probe survives; the master keeps
		// serving on the healthy subset.
		s.breakerOpen = true
		s.probing = false
		s.breakerUntilUS = now + c.cfg.cooldownUS
	} else {
		backoff := c.cfg.backoffBase << uint(s.fastCrashes)
		if backoff > c.cfg.backoffMax {
			backoff = c.cfg.backoffMax
		}
		s.nextSpawnUS = now + backoff
	}
}

// inflightTotal sums live dispatch credits in use.
func (c *fleetCore) inflightTotal() int {
	n := 0
	for _, s := range c.slots {
		if s.alive {
			n += s.inflight
		}
	}
	return n
}

// scale is the elastic policy, evaluated once per maintenance tick:
//   - up on pressure (queue depth at the accept side, or sheds since the
//     last look), doubling toward max_workers — a spawned worker ships no
//     memory and costs <1 ms, so aggressive scale-up is cheap;
//   - down one worker at a time after a sustained fully-idle window,
//     drain-before-retire (the retiring worker finishes its in-flight
//     requests before the SIGTERM goes out).
//
// Both directions are fault points ("fleet.scale.up"/"fleet.scale.down"):
// a Drop rule suppresses the Nth decision, a Kill rule crashes the master
// exactly there — which is how the chaos suite pins handover timing.
func (c *fleetCore) scale(now int64, queueLen int) {
	if c.cfg.maxWorkers <= c.cfg.nworkers {
		return // fixed-size fleet: elastic scaling disabled
	}
	shedDelta := c.shed - c.scaleShedMark
	c.scaleShedMark = c.shed
	busy := queueLen > 0 || shedDelta > 0 || c.inflightTotal() > 0
	if busy {
		c.idleSinceUS = now
	}
	pressure := queueLen >= c.cfg.scaleUpQueue || shedDelta > 0
	if pressure && c.target < c.cfg.maxWorkers && now-c.lastUpUS >= c.cfg.upCooldownUS {
		if c.faultAt("fleet.scale.up") == host.FaultDrop {
			return
		}
		old := c.target
		c.target *= 2
		if c.target > c.cfg.maxWorkers {
			c.target = c.cfg.maxWorkers
		}
		c.lastUpUS = now
		c.scaleUps++
		c.event(now, "up "+strconv.Itoa(old)+"->"+strconv.Itoa(c.target)+
			" q="+strconv.Itoa(queueLen)+" shed="+strconv.Itoa(shedDelta))
		return // never scale both directions in one tick
	}
	if !busy && c.target > c.cfg.nworkers &&
		now-c.idleSinceUS >= c.cfg.idleUS && now-c.lastDownUS >= c.cfg.downCooldownUS {
		if c.faultAt("fleet.scale.down") == host.FaultDrop {
			return
		}
		old := c.target
		c.target--
		c.lastDownUS = now
		c.scaleDowns++
		c.event(now, "down "+strconv.Itoa(old)+"->"+strconv.Itoa(c.target))
	}
}

// tick runs one maintenance pass at virtual or real time now: the scaler,
// then per-slot lifecycle — breaker half-open probes, spawn-due checks
// (only inside the target prefix), retire-on-drained, wedge quarantine,
// and overdue-kill scheduling. Returns the actions for the shell to apply.
func (c *fleetCore) tick(now int64, queueLen int) coreActions {
	var acts coreActions
	if c.draining {
		return acts
	}
	c.scale(now, queueLen)
	for _, s := range c.slots {
		// Breaker cooldown over: half-open, schedule one probe.
		if s.breakerOpen && now >= s.breakerUntilUS {
			s.breakerOpen = false
			s.probing = true
			s.nextSpawnUS = now
		}
		// Probe survived long enough: close the breaker for real.
		if s.probing && s.alive && now-s.startedUS >= c.cfg.minHealthyUS {
			s.probing = false
			s.fastCrashes = 0
		}
		// Scale-down marks slots beyond the target as retiring (no new
		// dispatch); a scale-up before the SIGTERM lands reclaims the
		// still-live worker instead of paying for a fresh spawn.
		if s.alive && !s.retiring && s.id >= c.target {
			s.retiring = true
			s.nextKillUS = now // drained check below may fire immediately
		} else if s.retiring && s.id < c.target {
			s.retiring = false
		}
		// Spawn-due: dead slot inside the target prefix, backoff elapsed.
		if s.id < c.target && !s.alive && !s.breakerOpen && s.pid == 0 && now >= s.nextSpawnUS {
			acts.spawn = append(acts.spawn, s)
		}
		// Retiring worker fully drained: terminate it (retried, in case
		// the signal RPC is lost to a partition).
		if s.retiring && s.alive && s.inflight == 0 && now >= s.nextKillUS {
			s.nextKillUS = now + c.cfg.killRetryUS
			acts.kill = append(acts.kill, killReq{pid: s.pid, sig: api.SIGTERM, slot: s})
		}
		// Wedge detection: requests held without progress.
		if s.alive && !s.quarantined && s.inflight > 0 && now-s.lastProgressUS > c.cfg.wedgeUS {
			s.quarantined = true
			s.quarantinedAtUS = now
			s.nextKillUS = now + c.cfg.killGraceUS
		}
		// Quarantine exit: progress resumed and credits returned
		// (e.g. a healed partition delivered the backlog of status
		// bytes) — rejoin without a kill.
		if s.quarantined && s.alive && s.inflight == 0 && now-s.lastProgressUS < c.cfg.wedgeUS {
			s.quarantined = false
		}
		// Overdue quarantined worker: kill (retried, since a partitioned
		// worker's signal RPC times out).
		if s.quarantined && s.alive && now >= s.nextKillUS {
			s.nextKillUS = now + c.cfg.killRetryUS
			acts.kill = append(acts.kill, killReq{pid: s.pid, sig: api.SIGKILL, slot: s})
		}
	}
	return acts
}
