package apps

import (
	"strconv"
	"strings"
	"sync"

	"graphene/internal/api"
)

// This file implements /bin/httpd-fleet and /bin/httpd-worker: the
// supervised prefork serving personality. Where /bin/apache is the
// paper's fixed-size §6.3 configuration (a crash silently shrinks the
// fleet), the fleet master is a production-shaped supervisor:
//
//   - workers are spawned (no memory shipped) rather than forked, and the
//     master reap-and-replaces crashed workers, detected through the
//     SIGCHLD/wait machinery and through EPIPE on the dispatch pipe;
//   - respawns run under a budget: exponential backoff per consecutive
//     fast crash, and a per-slot circuit breaker that takes a
//     crash-looping slot out of rotation (degrading to a smaller healthy
//     fleet) instead of fork-storming, with half-open probes to heal;
//   - dispatch is credit-bounded per worker and deadline-aware: a
//     connection that cannot reach a worker before its shed deadline is
//     answered with a fast "ERR 503" instead of queueing unboundedly;
//   - workers report liveness over a status pipe; a worker holding
//     requests without progress is quarantined (no new dispatch) and
//     eventually killed and replaced, which also covers workers wedged
//     behind a network partition;
//   - shutdown drains: stop accepting, flush the queue, wait for
//     in-flight requests, terminate and reap every worker.
//
// The master publishes a scoreboard file (Apache's shared-memory
// scoreboard, as a rename-swapped text file) that tests, chaos drivers,
// and operators read.

// fleetConfig is the master's tuning, argv-overridable via key=value.
type fleetConfig struct {
	addr     api.SockAddr
	nworkers int // minimum (and initial) worker count
	docroot  string

	queueDepth   int   // master accept queue bound
	perWorkerCap int   // dispatch credits per worker
	shedUS       int64 // deadline from accept to dispatch before ERR 503

	wedgeUS     int64 // no-progress window before quarantine
	killGraceUS int64 // quarantine age before the worker is killed
	killRetryUS int64 // retry interval for kills that fail (partition)

	minHealthyUS int64 // lifetime under which a crash counts as "fast"
	breakerTrips int   // consecutive fast crashes that open the breaker
	cooldownUS   int64 // breaker open time before a half-open probe
	backoffBase  int64 // respawn backoff base
	backoffMax   int64 // respawn backoff cap

	maxWorkers     int   // elastic ceiling; == nworkers disables scaling
	scaleUpQueue   int   // accept-queue depth that signals pressure
	upCooldownUS   int64 // min gap between scale-up decisions
	idleUS         int64 // sustained fully-idle window before scale-down
	downCooldownUS int64 // min gap between scale-down decisions
	seed           int64 // p2c dispatch RNG seed (determinism gate)

	standby bool  // run a hot-standby master
	hbUS    int64 // primary→standby heartbeat interval

	runUS      int64  // serve duration; 0 = until stop file appears
	scoreboard string // scoreboard path; stop file is scoreboard+".stop"
	drainUS    int64  // drain deadline

	// Standby-role plumbing (set by the primary on the standby's argv).
	role      string // "" = primary, "standby" = hot standby
	hbFD      int    // standby: heartbeat pipe read end
	ctlFD     int    // standby: control pipe read end (listener handover)
	takeovers int    // takeover generation this master inherited
	maxFDHint int    // standby: hygiene sweep bound (primary's maxFD)
}

func fleetConfigFrom(argv []string) (fleetConfig, bool) {
	if len(argv) < 4 {
		return fleetConfig{}, false
	}
	kv := parseKV(argv[4:])
	ms := func(key string, defMS int) int64 { return int64(kvInt(kv, key, defMS)) * 1000 }
	cfg := fleetConfig{
		addr:           api.SockAddr(argv[1]),
		nworkers:       atoiOr(argv[2], 4),
		docroot:        argv[3],
		queueDepth:     kvInt(kv, "queue", 256),
		perWorkerCap:   kvInt(kv, "cap", 8),
		shedUS:         ms("shed_ms", 400),
		wedgeUS:        ms("wedge_ms", 1000),
		killGraceUS:    ms("kill_grace_ms", 300),
		killRetryUS:    ms("kill_retry_ms", 500),
		minHealthyUS:   ms("min_healthy_ms", 150),
		breakerTrips:   kvInt(kv, "breaker", 3),
		cooldownUS:     ms("cooldown_ms", 400),
		backoffBase:    ms("backoff_ms", 10),
		backoffMax:     ms("backoff_max_ms", 500),
		maxWorkers:     kvInt(kv, "max", 0),
		scaleUpQueue:   kvInt(kv, "scale_up_queue", 8),
		upCooldownUS:   ms("up_cooldown_ms", 50),
		idleUS:         ms("idle_ms", 500),
		downCooldownUS: ms("down_cooldown_ms", 200),
		seed:           int64(kvInt(kv, "seed", 1)),
		standby:        kvInt(kv, "standby", 0) != 0,
		hbUS:           ms("hb_ms", 20),
		runUS:          ms("run_ms", 0),
		scoreboard:     kv["sb"],
		drainUS:        ms("drain_ms", 2000),
		role:           kv["role"],
		hbFD:           kvInt(kv, "hb", -1),
		ctlFD:          kvInt(kv, "ctl", -1),
		takeovers:      kvInt(kv, "takeover", 0),
		maxFDHint:      kvInt(kv, "maxfd", 0),
	}
	if cfg.scoreboard == "" {
		cfg.scoreboard = "/run/httpd-scoreboard"
	}
	if cfg.maxWorkers < cfg.nworkers {
		cfg.maxWorkers = cfg.nworkers
	}
	return cfg, true
}

// fleetSlot is one worker position in the fleet.
type fleetSlot struct {
	id  int
	pid int

	alive     bool
	dispatchW int // master's write end of the dispatch pipe
	statusR   int // master's read end of the status pipe

	inflight       int
	startedUS      int64
	lastProgressUS int64

	quarantined     bool
	quarantinedAtUS int64
	nextKillUS      int64

	// retiring marks a worker draining toward a scale-down SIGTERM: no
	// new dispatch, terminated once its in-flight requests complete.
	retiring bool

	fastCrashes    int
	breakerOpen    bool
	breakerUntilUS int64
	probing        bool
	nextSpawnUS    int64
}

// connItem is one accepted connection waiting for dispatch.
type connItem struct {
	fd        int
	arrivalUS int64
}

type fleetMaster struct {
	p        api.OS
	passer   api.ConnPasser
	threader api.Threader
	clock    appClock
	cfg      fleetConfig

	queue  chan connItem
	killCh chan killReq

	mu       sync.Mutex
	core     *fleetCore
	maxFD    int
	draining bool
	stopped  bool
	gen      int

	// Standby wiring: the primary's heartbeat pipe write end (-1 = no
	// standby), and the takeover lineage this master carries — epoch is
	// the election fence a takeover ran under, takeovers counts handovers.
	hbW       int
	epoch     int64
	takeovers int

	// spawnMu is held from a worker's Spawn until its PID is in the slot,
	// and by the reap: a worker that dies at once can be reaped before
	// Spawn returns, and would otherwise match no slot and stay "alive".
	spawnMu sync.Mutex

	supDone chan struct{}
	done    chan struct{}
}

type killReq struct {
	pid  int
	sig  api.Signal
	slot *fleetSlot
}

// FleetWorkerMain is /bin/httpd-worker. It is spawned (not forked) by the
// master, so it inherits the master's whole descriptor table with numbers
// preserved — argv tells it which two descriptors are its own.
//
// Usage: httpd-worker DISPATCH_RFD STATUS_WFD MAXFD SLOT DOCROOT
func FleetWorkerMain(p api.OS, argv []string) int {
	if len(argv) < 6 {
		return 2
	}
	rfd := atoiOr(argv[1], -1)
	sfd := atoiOr(argv[2], -1)
	maxfd := atoiOr(argv[3], -1)
	slot := atoiOr(argv[4], 0)
	docroot := argv[5]
	cp, ok := p.(api.ConnPasser)
	if !ok || rfd < 0 || sfd < 0 {
		return 2
	}
	// Descriptor hygiene, the close-on-exec discipline of a real prefork
	// server: drop every inherited descriptor that is not ours. Stray
	// references to siblings' dispatch pipes would otherwise keep a dead
	// sibling's pipe open, masking the EPIPE the master relies on, and
	// stray connection references would delay the EOF their clients wait
	// for.
	for fd := 3; fd <= maxfd; fd++ {
		if fd != rfd && fd != sfd {
			_ = p.Close(fd)
		}
	}
	// A poisoned docroot crash-loops the slot: the circuit-breaker
	// scenario. The marker is per-slot so a fleet can be part-poisoned.
	if _, err := p.Stat(docroot + "/.poison-" + strconv.Itoa(slot)); err == nil {
		return 3
	}
	// The sleeper backs /__work_<us> synthetic service time; allocated
	// after fd hygiene so its pipe survives the close sweep.
	sleep := newPollSleeper(p)
	_ = writeAll(p, sfd, []byte{'r'})
	for {
		conn, err := cp.ReceiveConnection(rfd)
		if err != nil {
			return 0 // master died or drained the pipe
		}
		fleetServe(p, sleep, conn, docroot)
		_ = p.Close(conn)
		if err := writeAll(p, sfd, []byte{'d'}); err != nil {
			return 0
		}
	}
}

// fleetServe handles one request, with the worker's chaos control paths.
func fleetServe(p api.OS, sleep *pollSleeper, conn int, docroot string) {
	line, err := readLine(p, conn)
	if err != nil {
		return
	}
	fields := strings.Fields(line)
	if len(fields) == 2 && fields[0] == "GET" {
		if arg, ok := strings.CutPrefix(fields[1], "/__work_"); ok {
			// Synthetic service time for capacity experiments: hold the
			// worker's credit for the requested microseconds (capped so a
			// typo cannot wedge a slot past the quarantine window), then
			// answer like a one-byte hit.
			us, _ := strconv.Atoi(arg)
			if us > 100_000 {
				us = 100_000
			}
			if us > 0 {
				sleep.sleepUS(int64(us))
			}
			_ = writeAll(p, conn, []byte("OK 1\nx"))
			return
		}
		switch fields[1] {
		case "/__wedge":
			// Stop making progress without exiting: spin until killed (or
			// a bounded wall-clock cap so an unsupervised worker cannot
			// burn CPU forever). No response, no status byte.
			start := nowUS(p)
			for {
				burnCPU(200_000)
				now, err := p.Gettimeofday()
				if err != nil || now-start > 5_000_000 {
					return
				}
			}
		case "/__exit":
			// Die mid-request: the client sees its connection close with
			// no response, the master sees the worker vanish.
			p.Exit(3)
		case "/__split":
			// Detach into a fresh sandbox. The reference monitor severs
			// every stream shared with the old sandbox, including the
			// dispatch and status pipes; the master observes EPIPE and
			// replaces the seceded worker.
			if sc, ok := p.(api.SandboxCreator); ok {
				_ = writeAll(p, conn, []byte("OK 0\n"))
				_ = p.Close(conn)
				_ = sc.SandboxCreate([]string{"/"})
				p.Exit(0)
			}
			_ = writeAll(p, conn, []byte("ERR 501\n"))
			return
		}
	}
	serveRequestLine(p, conn, docroot, line)
}

// FleetMain is /bin/httpd-fleet, the supervising master.
//
// Usage: httpd-fleet ADDR NWORKERS DOCROOT [key=value ...]
//
// Knobs: queue, cap, shed_ms, wedge_ms, kill_grace_ms, kill_retry_ms,
// min_healthy_ms, breaker, cooldown_ms, backoff_ms, backoff_max_ms,
// run_ms, drain_ms, sb (scoreboard path; "<sb>.stop" triggers drain);
// elastic scaling: max (worker ceiling; > NWORKERS enables the scaler),
// scale_up_queue, up_cooldown_ms, idle_ms, down_cooldown_ms, seed (p2c
// dispatch RNG); standby=1 runs a hot-standby master that adopts the
// listen socket and scoreboard when the primary dies (hb_ms heartbeat).
func FleetMain(p api.OS, argv []string) int {
	cfg, ok := fleetConfigFrom(argv)
	if !ok {
		printf(p, "usage: httpd-fleet ADDR NWORKERS DOCROOT [k=v ...]\n")
		return 2
	}
	if _, okP := p.(api.ConnPasser); !okP {
		return 1
	}
	if _, okT := p.(api.Threader); !okT {
		return 1
	}
	// A client may hang up before the master answers it (shed503 writes to
	// connections that waited out their deadline): that write must fail
	// with EPIPE, not kill the master or the standby with SIGPIPE.
	if err := p.Sigaction(api.SIGPIPE, nil, api.SigIgn); err != nil {
		return 1
	}
	if cfg.role == "standby" {
		return standbyMain(p, cfg)
	}
	lfd, err := p.Listen(cfg.addr)
	if err != nil {
		printf(p, "httpd-fleet: listen: "+err.Error()+"\n")
		return 1
	}
	return runFleet(p, cfg, lfd, 0, cfg.takeovers)
}

// runFleet is the master proper, entered by a fresh primary with the
// listener it bound, or by a promoted standby with the listener it
// adopted (and the election epoch fencing its takeover).
func runFleet(p api.OS, cfg fleetConfig, lfd int, epoch int64, takeovers int) int {
	m := &fleetMaster{
		p:         p,
		passer:    p.(api.ConnPasser),
		threader:  p.(api.Threader),
		clock:     newOSClock(p),
		cfg:       cfg,
		queue:     make(chan connItem, cfg.queueDepth),
		killCh:    make(chan killReq, 64),
		hbW:       -1,
		epoch:     epoch,
		takeovers: takeovers,
		supDone:   make(chan struct{}),
		done:      make(chan struct{}),
	}
	startUS := m.now()
	m.core = newFleetCore(cfg, startUS)
	if fp, ok := p.(api.FaultPointer); ok {
		m.core.fault = fp.FaultPoint
	}
	m.noteFD(lfd)
	// Parent configuration and module state, shared COW with workers.
	touchHeap(p, 4<<20)

	if cfg.standby {
		m.spawnStandby(lfd)
	}
	if err := m.threader.SpawnThread(m.supervisor); err != nil {
		return 1
	}
	if err := m.threader.SpawnThread(m.dispatcher); err != nil {
		return 1
	}
	if err := m.threader.SpawnThread(m.killer); err != nil {
		return 1
	}
	if err := m.threader.SpawnThread(func() { m.maintenance(startUS) }); err != nil {
		return 1
	}

	// Accept loop. Every accepted connection is timestamped at arrival so
	// shedding measures true queueing delay; a full queue sheds at accept.
	for {
		conn, err := p.Accept(lfd)
		if err != nil {
			break
		}
		if m.isDraining() {
			_ = p.Close(conn) // the self-connect (or a late client) during drain
			break
		}
		m.noteFD(conn)
		item := connItem{fd: conn, arrivalUS: nowUS(p)}
		select {
		case m.queue <- item:
		default:
			m.shed503(item.fd)
		}
	}
	close(m.queue)
	if !m.alive() {
		// Killed by the host (chaos or a fault point): the standby owns
		// the fleet now. Unblock helper threads parked on done and leave;
		// there is nothing left to drain through a dead picoprocess.
		close(m.done)
		return 1
	}
	m.drain()
	return 0
}

func (m *fleetMaster) now() int64 { return m.clock.nowUS() }

// alive reports whether the master's process can still enter the host
// kernel. A master killed at a fault point keeps its guest threads; they
// must notice and stand down rather than spin on instantly-failing calls.
func (m *fleetMaster) alive() bool {
	_, err := m.p.Gettimeofday()
	return err == nil
}

func (m *fleetMaster) isDraining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

func (m *fleetMaster) isStopped() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stopped
}

// noteFD tracks the highest descriptor number the master has seen, so a
// spawned worker knows how far its hygiene sweep must reach.
func (m *fleetMaster) noteFD(fd int) {
	m.mu.Lock()
	if fd > m.maxFD {
		m.maxFD = fd
	}
	m.mu.Unlock()
}

// shed503 answers a connection the fleet will not serve: a fast, explicit
// rejection instead of unbounded queueing.
func (m *fleetMaster) shed503(fd int) {
	_ = writeAll(m.p, fd, []byte("ERR 503\n"))
	_ = m.p.Close(fd)
	m.mu.Lock()
	m.core.shed++
	m.mu.Unlock()
}

// pickSlot picks a dispatch target by power-of-two-choices (fleetCore.pick)
// and takes one of its credits before the pass: the worker may serve the
// connection and return the credit ('d') before the pass returns, and a
// credit taken after that would leak and get the slot quarantined.
func (m *fleetMaster) pickSlot() *fleetSlot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.core.pick()
	if s != nil {
		s.inflight++
	}
	return s
}

// dispatcher moves connections from the accept queue to workers,
// shedding whatever cannot be placed before its deadline.
func (m *fleetMaster) dispatcher() {
	for item := range m.queue {
		m.dispatchOne(item)
	}
}

func (m *fleetMaster) dispatchOne(item connItem) {
	for {
		if !m.alive() {
			_ = m.p.Close(item.fd)
			return
		}
		if m.now()-item.arrivalUS > m.cfg.shedUS {
			m.shed503(item.fd)
			return
		}
		s := m.pickSlot()
		if s == nil {
			m.clock.sleepUS(1000)
			continue
		}
		err := m.passer.PassConnection(s.dispatchW, item.fd)
		if err == nil {
			m.mu.Lock()
			m.core.dispatched++
			m.mu.Unlock()
			_ = m.p.Close(item.fd)
			return
		}
		m.mu.Lock()
		if s.inflight > 0 {
			s.inflight-- // not passed: give the credit back
		}
		m.mu.Unlock()
		switch api.ToErrno(err) {
		case api.EPIPE, api.EBADF, api.ECONNRESET:
			// The worker died under us before the supervisor noticed.
			// Take the slot out of rotation and dispatch to the next one
			// instead of dropping the connection; the supervisor's reap
			// does the respawn bookkeeping.
			m.mu.Lock()
			s.alive = false
			m.core.passErr++
			m.mu.Unlock()
		case api.EAGAIN:
			// Dispatch pipe momentarily full: bounded backoff, then retry
			// (possibly on another worker).
			m.clock.sleepUS(1000)
		default:
			m.shed503(item.fd)
			return
		}
	}
}

// supervisor reaps dead workers and runs the respawn-budget bookkeeping.
func (m *fleetMaster) supervisor() {
	for {
		wr, err := m.p.Wait(-1)
		if err != nil {
			if api.ToErrno(err) == api.ESRCH || !m.alive() {
				return // master killed: nothing left to supervise
			}
			// ECHILD: no children right now (all reaped, respawns pending).
			m.mu.Lock()
			stopping := m.stopped || (m.draining && m.aliveLocked() == 0)
			m.mu.Unlock()
			if stopping {
				close(m.supDone)
				return
			}
			m.clock.sleepUS(5000)
			continue
		}
		m.onChildExit(wr.PID)
	}
}

func (m *fleetMaster) aliveLocked() int {
	n := 0
	for _, s := range m.core.slots {
		if s.alive {
			n++
		}
	}
	return n
}

// onChildExit updates the slot whose worker just died, delegating the
// backoff/breaker/retire bookkeeping to the core. Crash accounting happens
// exactly here (the dispatcher only marks slots dead), so each death is
// counted once. A reaped PID with no slot is the standby master exiting —
// nothing to do.
func (m *fleetMaster) onChildExit(pid int) {
	m.spawnMu.Lock()
	defer m.spawnMu.Unlock()
	now := m.now()
	m.mu.Lock()
	var s *fleetSlot
	for _, sl := range m.core.slots {
		if sl.pid == pid {
			s = sl
			break
		}
	}
	if s == nil {
		m.mu.Unlock()
		return
	}
	wfd, sfd := s.dispatchW, s.statusR
	s.dispatchW, s.statusR = -1, -1
	m.core.onExit(s, now)
	m.mu.Unlock()
	m.closeFDs(wfd, sfd)
}

func (m *fleetMaster) closeFDs(fds ...int) {
	for _, fd := range fds {
		if fd >= 0 {
			_ = m.p.Close(fd)
		}
	}
}

// readStatus consumes one worker's liveness bytes: 'r' on ready, 'd' per
// completed request. Progress timestamps feed the wedge detector;
// completions return dispatch credits. One thread per worker, because a
// read through a network partition parks until the partition heals — a
// single shared reader would let one wedged link starve every healthy
// worker's bookkeeping. The thread ends at EOF (worker death or sandbox
// secession: the supervisor handles the slot) or when the slot's pipe is
// closed under it by a respawn.
func (m *fleetMaster) readStatus(s *fleetSlot, pid, fd int) {
	buf := make([]byte, 64)
	for {
		n, err := m.p.Read(fd, buf)
		if n <= 0 || err != nil {
			return
		}
		now := m.now()
		m.mu.Lock()
		if s.pid != pid {
			m.mu.Unlock()
			return
		}
		for _, b := range buf[:n] {
			switch b {
			case 'r':
				s.lastProgressUS = now
			case 'd':
				if s.inflight > 0 {
					s.inflight--
				}
				m.core.completed++
				s.lastProgressUS = now
			}
		}
		m.mu.Unlock()
	}
}

// killer performs worker kills on its own thread: a kill through a
// partition blocks on the signal RPC timeout, and quarantine maintenance
// must not stall behind it.
func (m *fleetMaster) killer() {
	for {
		var req killReq
		select {
		case req = <-m.killCh:
		case <-m.done:
			return
		}
		m.mu.Lock()
		skip := false
		if req.slot != nil {
			if !req.slot.alive || req.slot.pid != req.pid {
				skip = true // the worker already died and was replaced
			}
			if req.sig == api.SIGKILL && !req.slot.quarantined {
				skip = true // quarantine lifted before the kill fired
			}
		}
		m.mu.Unlock()
		if skip {
			continue
		}
		_ = m.p.Kill(req.pid, req.sig)
	}
}

// spawnSlot starts a worker for s. Runs outside the master lock (Spawn is
// a checkpoint round trip).
func (m *fleetMaster) spawnSlot(s *fleetSlot) {
	r, w, err := m.p.Pipe()
	if err != nil {
		return
	}
	sr, sw, err := m.p.Pipe()
	if err != nil {
		m.closeFDs(r, w)
		return
	}
	for _, fd := range []int{r, w, sr, sw} {
		m.noteFD(fd)
	}
	m.mu.Lock()
	maxfd := m.maxFD + 16 // slack for descriptors raced in before checkpoint
	m.mu.Unlock()
	m.spawnMu.Lock()
	pid, err := m.p.Spawn("/bin/httpd-worker", []string{
		"httpd-worker", strconv.Itoa(r), strconv.Itoa(sw), strconv.Itoa(maxfd),
		strconv.Itoa(s.id), m.cfg.docroot,
	})
	_ = m.p.Close(r)
	_ = m.p.Close(sw)
	if err != nil {
		m.spawnMu.Unlock()
		m.closeFDs(w, sr)
		m.mu.Lock()
		s.nextSpawnUS = m.now() + m.cfg.backoffMax
		m.mu.Unlock()
		return
	}
	now := m.now()
	m.mu.Lock()
	s.pid = pid
	s.alive = true
	s.dispatchW = w
	s.statusR = sr
	s.inflight = 0
	s.startedUS = now
	s.lastProgressUS = now
	s.quarantined = false
	s.retiring = false
	s.nextKillUS = 0
	m.core.spawns++
	m.mu.Unlock()
	m.spawnMu.Unlock()
	_ = m.threader.SpawnThread(func() { m.readStatus(s, pid, sr) })
}

// maintenance is the master's periodic brain: it evaluates the
// "fleet.master.kill" fault point, feeds the core one tick (scaler,
// breaker probes, wedge quarantine, spawn/kill scheduling), applies the
// returned actions, heartbeats the standby, and publishes the scoreboard.
func (m *fleetMaster) maintenance(startUS int64) {
	stopFile := m.cfg.scoreboard + ".stop"
	tick := 0
	hbEvery := int(m.cfg.hbUS / 5000)
	if hbEvery < 1 {
		hbEvery = 1
	}
	for !m.isStopped() {
		if !m.alive() {
			return // killed by chaos or a fault point: the standby takes over
		}
		// The handover fault point: a Kill rule here crashes the master at
		// a deterministic maintenance tick, mid-load.
		m.faultPoint("fleet.master.kill")
		now := m.now()

		// Drain trigger: fixed duration or operator stop file.
		if !m.isDraining() {
			expired := m.cfg.runUS > 0 && now-startUS > m.cfg.runUS
			stopped := false
			if _, err := m.p.Stat(stopFile); err == nil {
				stopped = true
			}
			if expired || stopped {
				m.initiateDrain()
			}
		}

		m.mu.Lock()
		acts := m.core.tick(now, len(m.queue))
		m.mu.Unlock()
		for _, s := range acts.spawn {
			m.spawnSlot(s)
		}
		for _, req := range acts.kill {
			select {
			case m.killCh <- req:
			default:
			}
		}
		if tick%hbEvery == 0 {
			m.heartbeatStandby()
		}
		if tick%4 == 0 {
			m.writeScoreboard()
		}
		tick++
		m.clock.sleepUS(5000)
	}
}

// faultPoint routes a named decision point through the personality's
// fault surface (no-op off-Graphene or without a plan).
func (m *fleetMaster) faultPoint(name string) {
	if fp, ok := m.p.(api.FaultPointer); ok {
		fp.FaultPoint(name)
	}
}

// initiateDrain flips the fleet into drain mode and wakes the accept loop
// with a self-connect (there is no way to interrupt a blocked accept).
func (m *fleetMaster) initiateDrain() {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return
	}
	m.draining = true
	m.core.draining = true
	m.mu.Unlock()
	// Tell the standby this is a planned shutdown, not a death to take
	// over from, and stop heartbeating: the standby exits on 'q', and a
	// heartbeat into its closed pipe would raise SIGPIPE and kill this
	// master mid-drain.
	m.mu.Lock()
	hbW := m.hbW
	m.hbW = -1
	m.mu.Unlock()
	if hbW >= 0 {
		_ = writeAll(m.p, hbW, []byte{'q'})
		_ = m.p.Close(hbW)
	}
	if fd, err := m.p.Connect(m.cfg.addr); err == nil {
		_ = m.p.Close(fd)
	}
}

// drain runs after the accept loop stops: flush the queue (the dispatcher
// sheds or places everything left), wait for in-flight requests, then
// terminate and reap the fleet.
func (m *fleetMaster) drain() {
	deadline := m.now() + m.cfg.drainUS
	for m.now() < deadline {
		m.mu.Lock()
		busy := len(m.queue) > 0
		for _, s := range m.core.slots {
			if s.alive && s.inflight > 0 {
				busy = true
			}
		}
		m.mu.Unlock()
		if !busy {
			break
		}
		m.clock.sleepUS(5000)
	}
	// Terminate idle workers; SIGTERM's default disposition is fatal.
	m.mu.Lock()
	var live []killReq
	for _, s := range m.core.slots {
		if s.alive && s.pid > 0 {
			live = append(live, killReq{pid: s.pid, sig: api.SIGTERM, slot: s})
		}
	}
	m.mu.Unlock()
	for _, req := range live {
		m.killCh <- req
	}
	// The supervisor reaps every death and closes supDone once no
	// children remain; cap the wait so a kill lost to a partition cannot
	// wedge shutdown.
	waitUntil := m.now() + m.cfg.drainUS
	for {
		select {
		case <-m.supDone:
		default:
			if m.now() < waitUntil {
				m.clock.sleepUS(5000)
				continue
			}
		}
		break
	}
	m.mu.Lock()
	m.stopped = true
	m.mu.Unlock()
	close(m.done) // killCh stays open: racing senders must never panic
	m.writeScoreboard()
}

// writeScoreboard publishes fleet state as a single rename-swapped line:
//
//	gen=… draining=… workers=… alive=… healthy=… quarantined=… breaker=…
//	spawns=… respawns=… crashes=… dispatched=… completed=… shed=…
//	passerr=… target=… scaleups=… scaledowns=… epoch=… takeovers=… pids=…
//
// The rename swap is what lets a promoted standby adopt the scoreboard:
// its first publish atomically replaces the dead primary's last line, so
// readers never see a torn or stale-generation mix.
func (m *fleetMaster) writeScoreboard() {
	m.mu.Lock()
	m.gen++
	alive, healthy, quarantined, breaker := 0, 0, 0, 0
	var pids []string
	for _, s := range m.core.slots {
		if s.alive {
			alive++
			pids = append(pids, strconv.Itoa(s.pid))
		}
		if s.alive && !s.quarantined && !s.breakerOpen {
			healthy++
		}
		if s.quarantined {
			quarantined++
		}
		if s.breakerOpen {
			breaker++
		}
	}
	respawns := m.core.spawns - m.cfg.nworkers
	if respawns < 0 {
		respawns = 0
	}
	draining := 0
	if m.draining {
		draining = 1
	}
	line := "gen=" + strconv.Itoa(m.gen) +
		" draining=" + strconv.Itoa(draining) +
		" workers=" + strconv.Itoa(m.cfg.nworkers) +
		" alive=" + strconv.Itoa(alive) +
		" healthy=" + strconv.Itoa(healthy) +
		" quarantined=" + strconv.Itoa(quarantined) +
		" breaker=" + strconv.Itoa(breaker) +
		" spawns=" + strconv.Itoa(m.core.spawns) +
		" respawns=" + strconv.Itoa(respawns) +
		" crashes=" + strconv.Itoa(m.core.crashes) +
		" dispatched=" + strconv.Itoa(m.core.dispatched) +
		" completed=" + strconv.Itoa(m.core.completed) +
		" shed=" + strconv.Itoa(m.core.shed) +
		" passerr=" + strconv.Itoa(m.core.passErr) +
		" target=" + strconv.Itoa(m.core.target) +
		" scaleups=" + strconv.Itoa(m.core.scaleUps) +
		" scaledowns=" + strconv.Itoa(m.core.scaleDowns) +
		" epoch=" + strconv.FormatInt(m.epoch, 10) +
		" takeovers=" + strconv.Itoa(m.takeovers) +
		" pids=" + strings.Join(pids, ",") + "\n"
	sb := m.cfg.scoreboard
	m.mu.Unlock()
	tmp := sb + ".tmp"
	if err := writeFile(m.p, tmp, []byte(line)); err != nil {
		return
	}
	_ = m.p.Rename(tmp, sb)
}
