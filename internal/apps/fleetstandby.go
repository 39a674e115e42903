package apps

import (
	"strconv"

	"graphene/internal/api"
)

// Hot-standby master. The primary spawns a second httpd-fleet in standby
// role and immediately passes it the listen socket over a control pipe
// (pass-early/activate-on-death: Graphene's checkpoint does not carry
// listeners, but a passed handle makes the standby a co-holder of the
// same host listener, exactly as an SCM_RIGHTS-passed fd refers to the
// same open file description — so the socket survives the primary).
// The standby then parks on the heartbeat pipe:
//
//	'h'  primary alive — keep waiting
//	'q'  planned drain — exit cleanly, no takeover
//	EOF  primary died — run one epoch-fenced election round, then adopt
//	     the fleet: serve from the already-held listener, publish over
//	     the rename-swapped scoreboard, and spawn a fresh standby of its
//	     own so the fleet always has a successor.
//
// The dead primary's workers are not adopted: their dispatch pipes EOF
// when the primary's descriptor table is torn down, so they exit on
// their own and the new master spawns a fresh fleet. Handover cost is
// therefore one election window plus nworkers sub-millisecond spawns.

// knobArgs re-encodes the parsed config as key=value argv entries so a
// spawned standby runs under the primary's exact tuning (including the
// p2c seed, which the determinism gate depends on).
func (cfg fleetConfig) knobArgs() []string {
	msArg := func(key string, us int64) string {
		return key + "=" + strconv.FormatInt(us/1000, 10)
	}
	intArg := func(key string, v int) string {
		return key + "=" + strconv.Itoa(v)
	}
	standby := 0
	if cfg.standby {
		standby = 1
	}
	return []string{
		intArg("queue", cfg.queueDepth),
		intArg("cap", cfg.perWorkerCap),
		msArg("shed_ms", cfg.shedUS),
		msArg("wedge_ms", cfg.wedgeUS),
		msArg("kill_grace_ms", cfg.killGraceUS),
		msArg("kill_retry_ms", cfg.killRetryUS),
		msArg("min_healthy_ms", cfg.minHealthyUS),
		intArg("breaker", cfg.breakerTrips),
		msArg("cooldown_ms", cfg.cooldownUS),
		msArg("backoff_ms", cfg.backoffBase),
		msArg("backoff_max_ms", cfg.backoffMax),
		intArg("max", cfg.maxWorkers),
		intArg("scale_up_queue", cfg.scaleUpQueue),
		msArg("up_cooldown_ms", cfg.upCooldownUS),
		msArg("idle_ms", cfg.idleUS),
		msArg("down_cooldown_ms", cfg.downCooldownUS),
		intArg("seed", int(cfg.seed)),
		intArg("standby", standby),
		msArg("hb_ms", cfg.hbUS),
		msArg("run_ms", cfg.runUS),
		"sb=" + cfg.scoreboard,
		msArg("drain_ms", cfg.drainUS),
	}
}

// spawnStandby starts the hot standby and hands it the listen socket.
// Called once at master startup, before the serving threads exist.
func (m *fleetMaster) spawnStandby(lfd int) {
	hbR, hbW, err := m.p.Pipe()
	if err != nil {
		return
	}
	ctlR, ctlW, err := m.p.Pipe()
	if err != nil {
		m.closeFDs(hbR, hbW)
		return
	}
	for _, fd := range []int{hbR, hbW, ctlR, ctlW} {
		m.noteFD(fd)
	}
	m.mu.Lock()
	maxfd := m.maxFD + 16
	m.mu.Unlock()
	argv := []string{
		"httpd-fleet", string(m.cfg.addr), strconv.Itoa(m.cfg.nworkers), m.cfg.docroot,
	}
	argv = append(argv, m.cfg.knobArgs()...)
	argv = append(argv,
		"role=standby",
		"hb="+strconv.Itoa(hbR),
		"ctl="+strconv.Itoa(ctlR),
		"takeover="+strconv.Itoa(m.takeovers+1),
		"maxfd="+strconv.Itoa(maxfd),
	)
	if _, err := m.p.Spawn("/bin/httpd-fleet", argv); err != nil {
		m.closeFDs(hbR, hbW, ctlR, ctlW)
		return
	}
	// Listener handover, eagerly: once this completes the standby co-holds
	// the listen socket at the host and the primary's death cannot tear it
	// down.
	if err := m.passer.PassConnection(ctlW, lfd); err != nil {
		m.closeFDs(hbR, hbW, ctlR, ctlW)
		return
	}
	m.closeFDs(hbR, ctlR, ctlW)
	m.mu.Lock()
	m.hbW = hbW
	m.mu.Unlock()
}

// heartbeatStandby sends one liveness byte. A failed write means the
// standby died; the primary keeps serving without one (it does not
// respawn standbys — a fleet that lost both masters in one run is a
// chaos scenario the error budget owns).
func (m *fleetMaster) heartbeatStandby() {
	m.mu.Lock()
	hbW := m.hbW
	m.mu.Unlock()
	if hbW < 0 {
		return
	}
	if err := writeAll(m.p, hbW, []byte{'h'}); err != nil {
		m.mu.Lock()
		m.hbW = -1
		m.mu.Unlock()
		_ = m.p.Close(hbW)
	}
}

// standbyMain is the standby-role entry point: adopt the listener, wait
// for the primary to die or drain, take over if it dies.
func standbyMain(p api.OS, cfg fleetConfig) int {
	cp := p.(api.ConnPasser)
	if cfg.hbFD < 0 || cfg.ctlFD < 0 {
		return 2
	}
	// Descriptor hygiene, same discipline as the workers: the standby
	// inherits the primary's whole table (worker dispatch pipes included).
	// Holding those write ends open would mask the EPIPE/EOF signals the
	// rest of the fleet relies on, so drop everything but our two pipes.
	for fd := 3; fd <= cfg.maxFDHint; fd++ {
		if fd != cfg.hbFD && fd != cfg.ctlFD {
			_ = p.Close(fd)
		}
	}
	lfd, err := cp.ReceiveConnection(cfg.ctlFD)
	if err != nil {
		return 1
	}
	_ = p.Close(cfg.ctlFD)
	buf := make([]byte, 16)
	for {
		n, err := p.Read(cfg.hbFD, buf)
		if err != nil || n <= 0 {
			break // EOF: the primary is gone
		}
		quit := false
		for _, b := range buf[:n] {
			if b == 'q' {
				quit = true
			}
		}
		if quit {
			return 0 // planned drain: the fleet is shutting down
		}
	}
	_ = p.Close(cfg.hbFD)
	// Takeover. One election round through the coordination plane fences
	// this master's epoch against any stale primary still flushing writes;
	// the epoch lands on the scoreboard so readers can spot the handover.
	var epoch int64
	if el, ok := p.(api.Elector); ok {
		if e, err := el.ElectEpoch(); err == nil {
			epoch = e
		}
	}
	return runFleet(p, cfg, lfd, epoch, cfg.takeovers)
}
