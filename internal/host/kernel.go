package host

import (
	"crypto/rand"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"graphene/internal/api"
)

// Host syscall numbers — the ~50 Linux system calls the PAL is implemented
// with (§3.1). Numbers follow Linux/x86-64 where they exist.
const (
	SysRead          = 0
	SysWrite         = 1
	SysOpen          = 2
	SysClose         = 3
	SysStat          = 4
	SysFstat         = 5
	SysPoll          = 7
	SysLseek         = 8
	SysMmap          = 9
	SysMprotect      = 10
	SysMunmap        = 11
	SysBrk           = 12
	SysRtSigaction   = 13
	SysRtSigprocmask = 14
	SysRtSigreturn   = 15
	SysIoctl         = 16
	SysSchedYield    = 24
	SysDup           = 32
	SysNanosleep     = 35
	SysGetpid        = 39
	SysSocket        = 41
	SysConnect       = 42
	SysAccept        = 43
	SysSendto        = 44
	SysRecvfrom      = 45
	SysShutdown      = 48
	SysBind          = 49
	SysListen        = 50
	SysSocketpair    = 53
	SysClone         = 56
	SysFork          = 57
	SysVfork         = 58
	SysExecve        = 59
	SysExit          = 60
	SysWait4         = 61
	SysKill          = 62
	SysFcntl         = 72
	SysFsync         = 74
	SysTruncate      = 76
	SysGetdents      = 78
	SysRename        = 82
	SysMkdir         = 83
	SysRmdir         = 84
	SysUnlink        = 87
	SysGettimeofday  = 96
	SysSemget        = 64
	SysSemop         = 65
	SysSemctl        = 66
	SysMsgget        = 68
	SysMsgsnd        = 69
	SysMsgrcv        = 70
	SysMsgctl        = 71
	SysSetpgid       = 109
	SysGetpgid       = 121
	SysPrctl         = 157
	SysArchPrctl     = 158
	SysGettid        = 186
	SysFutex         = 202
	SysExitGroup     = 231
	SysTgkill        = 234
	SysOpenat        = 257
	SysPipe2         = 293
	SysGetrandom     = 318

	// NumHostSyscalls bounds host syscall numbering (Linux has ~320 through
	// the 3.x series; the filter tables size themselves off this).
	NumHostSyscalls = 360
)

// PALSyscalls is the set of host system calls appearing in the PAL source —
// everything else is trapped by the seccomp filter (§3.1; "The PAL is
// implemented using 50 host system calls").
var PALSyscalls = []int{
	SysRead, SysWrite, SysOpen, SysClose, SysStat, SysFstat, SysPoll,
	SysLseek, SysMmap, SysMprotect, SysMunmap, SysRtSigaction,
	SysRtSigprocmask, SysRtSigreturn, SysIoctl, SysSchedYield, SysDup,
	SysNanosleep, SysGetpid, SysSocket, SysConnect, SysAccept, SysSendto,
	SysRecvfrom, SysShutdown, SysBind, SysListen, SysSocketpair, SysClone,
	SysVfork, SysExecve, SysExit, SysWait4, SysKill, SysFcntl, SysFsync,
	SysTruncate, SysGetdents, SysRename, SysMkdir, SysRmdir, SysUnlink,
	SysGettimeofday, SysPrctl, SysArchPrctl, SysGettid, SysFutex,
	SysExitGroup, SysTgkill, SysOpenat, SysPipe2, SysGetrandom,
}

// Policy is the reference monitor's hook into the host kernel: every host
// call with effects outside the calling picoprocess's address space is
// checked here (the trusted computing base of §3).
type Policy interface {
	// CheckOpen authorizes opening path (post-chroot-translation happens in
	// the monitor; the kernel passes the guest-visible path).
	CheckOpen(proc *Picoprocess, path string, write bool) error
	// TranslatePath maps a guest path to the host path per the manifest's
	// chroot-style union view. Returns ENOENT for paths outside the view.
	TranslatePath(proc *Picoprocess, path string) (string, error)
	// CheckStreamConnect authorizes proc connecting to a listener owned by
	// ownerPID (blocked across sandboxes).
	CheckStreamConnect(proc *Picoprocess, ownerPID int) error
	// CheckBulkIPC authorizes mapping from a store created by creatorPID.
	CheckBulkIPC(proc *Picoprocess, creatorPID int) error
	// CheckProcessCreate authorizes spawning a child picoprocess.
	CheckProcessCreate(parent *Picoprocess) error
	// CheckNetBind / CheckNetConnect enforce iptables-style rules.
	CheckNetBind(proc *Picoprocess, addr api.SockAddr) error
	CheckNetConnect(proc *Picoprocess, addr api.SockAddr) error
	// OnProcessCreate/Exit maintain sandbox membership.
	OnProcessCreate(parent, child *Picoprocess, newSandbox bool)
	OnProcessExit(proc *Picoprocess)
}

// openPolicy permits everything — used for baseline personalities and
// kernels constructed without a reference monitor.
type openPolicy struct{}

func (openPolicy) CheckOpen(*Picoprocess, string, bool) error { return nil }
func (openPolicy) TranslatePath(_ *Picoprocess, path string) (string, error) {
	return CleanPath(path), nil
}
func (openPolicy) CheckStreamConnect(*Picoprocess, int) error       { return nil }
func (openPolicy) CheckBulkIPC(*Picoprocess, int) error             { return nil }
func (openPolicy) CheckProcessCreate(*Picoprocess) error            { return nil }
func (openPolicy) CheckNetBind(*Picoprocess, api.SockAddr) error    { return nil }
func (openPolicy) CheckNetConnect(*Picoprocess, api.SockAddr) error { return nil }
func (openPolicy) OnProcessCreate(*Picoprocess, *Picoprocess, bool) {}
func (openPolicy) OnProcessExit(*Picoprocess)                       {}

// Kernel is the simulated host kernel: picoprocess table, file system,
// stream registry, bulk-IPC stores, and the syscall gate.
type Kernel struct {
	FS *FileSystem

	policy  Policy
	streams *streamRegistry

	mu       sync.Mutex
	procs    map[int]*Picoprocess
	nextPID  int
	stores   map[int]*IPCStore
	nextSID  int
	nextSand int

	// rings / semSegs are the kernel-bypass SysV segments (ring.go). One
	// ID space covers both flavors; revocation sweeps run on process exit
	// and sandbox splits.
	rings    map[int]*RingSegment
	semSegs  map[int]*SemSeg
	nextRing int

	console    *Console
	broadcasts map[int]*BroadcastChannel // per-sandbox coordination channels

	// partitions is the kernel-wide partition graph (chaos testing): every
	// stream endpoint and broadcast channel the kernel hands out consults
	// it, so Partition/Heal stall live traffic without tearing streams.
	partitions *partitionTable

	// syscallCount is a diagnostic counter of gate entries.
	syscallCount atomic.Int64

	// traceRing is the default flight-recorder capacity for new root
	// picoprocesses (children inherit the parent's configured capacity).
	traceRing atomic.Int64

	// retired holds recently exited picoprocesses' flight recorders so a
	// post-mortem dump covers the processes a chaos kill just took out.
	retired []retiredRec
}

// SetTraceRing sets the default flight-recorder capacity (events) for
// picoprocesses created from now on: 0 restores DefaultTraceRing, a
// negative value disables recording by default.
func (k *Kernel) SetTraceRing(n int) { k.traceRing.Store(int64(n)) }

// newProcRing resolves the ring capacity for a fresh picoprocess.
func (k *Kernel) newProcRing(parent *Picoprocess) int {
	if parent != nil {
		if n := parent.traceRing.Load(); n != 0 {
			return int(n)
		}
	}
	if n := k.traceRing.Load(); n != 0 {
		return int(n)
	}
	return DefaultTraceRing
}

// BroadcastOf returns the broadcast channel of the given sandbox, creating
// it on first use. A fresh sandbox (after a split) gets a fresh channel,
// disconnecting the detached process from its old sandbox's coordination
// traffic (§4.1).
func (k *Kernel) BroadcastOf(sandboxID int) *BroadcastChannel {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.broadcasts == nil {
		k.broadcasts = make(map[int]*BroadcastChannel)
	}
	bc, ok := k.broadcasts[sandboxID]
	if !ok {
		bc = NewBroadcastChannel()
		bc.part = k.partitions
		k.broadcasts[sandboxID] = bc
	}
	return bc
}

// NewKernel creates a kernel with an empty file system and open policy.
func NewKernel() *Kernel {
	k := &Kernel{
		FS:      NewFileSystem(),
		policy:  openPolicy{},
		streams: newStreamRegistry(),
		procs:   make(map[int]*Picoprocess),
		stores:  make(map[int]*IPCStore),
		rings:   make(map[int]*RingSegment),
		semSegs: make(map[int]*SemSeg),
	}
	k.partitions = newPartitionTable()
	k.streams.part = k.partitions
	return k
}

// SetPolicy installs the reference monitor. Must be called before any
// picoprocess is created.
func (k *Kernel) SetPolicy(p Policy) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if p == nil {
		k.policy = openPolicy{}
	} else {
		k.policy = p
	}
}

// Policy returns the installed policy.
func (k *Kernel) Policy() Policy {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.policy
}

// NewSandboxID allocates a fresh sandbox identifier for the monitor.
func (k *Kernel) NewSandboxID() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.nextSand++
	return k.nextSand
}

// CreateProcess allocates a picoprocess. If parent is non-nil the policy's
// CheckProcessCreate gate runs and sandbox membership is inherited or split
// per newSandbox. The caller starts guest threads itself.
func (k *Kernel) CreateProcess(parent *Picoprocess, newSandbox bool) (*Picoprocess, error) {
	if parent != nil {
		if err := k.Policy().CheckProcessCreate(parent); err != nil {
			return nil, err
		}
	}
	k.mu.Lock()
	k.nextPID++
	p := &Picoprocess{
		ID:      k.nextPID,
		AS:      NewAddressSpace(),
		kernel:  k,
		streams: make(map[*Stream]struct{}),
		exited:  NewEvent(true),
	}
	if parent != nil {
		p.ParentID = parent.ID
		p.SandboxID = parent.SandboxID
		p.filter = parent.filter // seccomp filters are always inherited
	}
	k.procs[p.ID] = p
	k.mu.Unlock()
	if ring := k.newProcRing(parent); ring > 0 {
		p.traceRing.Store(int64(ring))
		p.rec.Store(NewFlightRecorder(ring))
	} else {
		p.traceRing.Store(int64(ring))
	}
	k.Policy().OnProcessCreate(parent, p, newSandbox)
	return p, nil
}

// Process looks up a picoprocess by host PID.
func (k *Kernel) Process(pid int) *Picoprocess {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.procs[pid]
}

// Processes snapshots the live picoprocess table.
func (k *Kernel) Processes() []*Picoprocess {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]*Picoprocess, 0, len(k.procs))
	for _, p := range k.procs {
		out = append(out, p)
	}
	return out
}

func (k *Kernel) onProcessExit(p *Picoprocess) {
	k.retireRecorder(p)
	k.mu.Lock()
	delete(k.procs, p.ID)
	// A dead endpoint revokes its kernel-bypass rings: the survivor's
	// drainer wakes, reclaims undrained messages, and falls back to RPC.
	k.revokeRingsLocked(func(creator, client int) bool {
		return creator != p.ID && client != p.ID
	})
	bc := k.broadcasts[p.SandboxID]
	k.mu.Unlock()
	if bc != nil {
		// A dead picoprocess stops hearing (and answering) sandbox
		// coordination traffic; its receive loop unblocks and exits.
		bc.Unsubscribe(p.ID)
	}
	k.Policy().OnProcessExit(p)
}

// Gate runs the picoprocess's seccomp filter for syscall nr. fromPAL marks
// calls whose return PC lies in the PAL (§3.1's PC-based filters). The
// error is nil (allow), EPERM (deny), or ErrSigsys (trap → redirect).
func (k *Kernel) Gate(p *Picoprocess, nr int, fromPAL bool) error {
	k.syscallCount.Add(1)
	if p.dead.Load() {
		// A crashed picoprocess cannot enter the host kernel again.
		return api.ESRCH
	}
	if TraceVerboseEnabled() {
		// Gate entries are recorded only at the verbose level: the gate sits
		// on every PAL call and a default-level event here would distort the
		// syscall-latency figures the recorder exists to explain.
		p.TraceRecord(TraceEvent{TS: TraceNow(), Kind: EvGate, Code: uint32(nr)})
	}
	if p.HasFaultPlan() {
		if p.Fault("sys."+strconv.Itoa(nr)) == FaultKill {
			return api.ESRCH
		}
	}
	f := p.Filter()
	if f == nil {
		return nil
	}
	switch f.Evaluate(nr, fromPAL) {
	case ActionAllow:
		return nil
	case ActionTrap:
		return ErrSigsys
	default:
		return api.EPERM
	}
}

// ErrSigsys reports a trapped syscall: the host delivered SIGSYS and the
// PAL must redirect the call to libLinux (§3.1, "Static Binaries").
var ErrSigsys = fmt.Errorf("SIGSYS: syscall trapped by seccomp filter")

// SyscallCount returns the number of gate entries (diagnostics).
func (k *Kernel) SyscallCount() int64 { return k.syscallCount.Load() }

// --- streams ---

// StreamListen creates a named listener owned by p after the policy check.
func (k *Kernel) StreamListen(p *Picoprocess, name string) (*Listener, error) {
	if err := k.Gate(p, SysBind, true); err != nil {
		return nil, err
	}
	l, err := k.streams.listen(name, p.ID)
	if err != nil {
		return nil, err
	}
	p.registerListener(l)
	return l, nil
}

// StreamConnect connects p to the listener at name, subject to the
// monitor's cross-sandbox check.
func (k *Kernel) StreamConnect(p *Picoprocess, name string) (*Stream, error) {
	if err := k.Gate(p, SysConnect, true); err != nil {
		return nil, err
	}
	k.streams.mu.Lock()
	l := k.streams.listeners[name]
	k.streams.mu.Unlock()
	if l == nil {
		return nil, api.ECONNREFUSED
	}
	if err := k.Policy().CheckStreamConnect(p, l.Owner()); err != nil {
		return nil, err
	}
	s, err := k.streams.connect(name, p.ID)
	if err != nil {
		return nil, err
	}
	p.registerStream(s)
	return s, nil
}

// StreamAccept accepts a connection on l for p.
func (k *Kernel) StreamAccept(p *Picoprocess, l *Listener) (*Stream, error) {
	if err := k.Gate(p, SysAccept, true); err != nil {
		return nil, err
	}
	s, err := l.Accept()
	if err != nil {
		return nil, err
	}
	if p.Dead() {
		// The acceptor died while parked in the backlog receive (a chaos
		// kill of a fleet master). The connection belongs to whichever
		// co-holder is still accepting — put it back rather than strand it
		// on a corpse.
		if l.deliver(s) != nil {
			s.Close()
		}
		return nil, api.ESRCH
	}
	s.localPID.Store(int64(p.ID))
	p.registerStream(s)
	return s, nil
}

// StreamPair creates an anonymous connected pair between two picoprocesses
// (the host side of picoprocess creation's initial stream).
func (k *Kernel) StreamPair(a, b *Picoprocess) (*Stream, *Stream) {
	k.mu.Lock()
	k.streams.nextAnon++
	name := fmt.Sprintf("pipe:%d", k.streams.nextAnon)
	k.mu.Unlock()
	sa, sb := NewStreamPair(name, a.ID, b.ID)
	sa.part, sb.part = k.partitions, k.partitions
	a.registerStream(sa)
	b.registerStream(sb)
	return sa, sb
}

// StreamClose closes s and untracks it from p.
func (k *Kernel) StreamClose(p *Picoprocess, s *Stream) {
	p.unregisterStream(s)
	s.Close()
}

// RemoveListener tears down a named listener unconditionally, regardless
// of co-holders. Explicit server shutdown paths use this; descriptor
// close and process exit go through ReleaseListener instead.
func (k *Kernel) RemoveListener(l *Listener) {
	l.Close()
	k.streams.remove(l.Name)
}

// AdoptListener re-homes a received listener handle to p: p becomes a
// co-holder of the listening socket (as if the fd had been duplicated via
// SCM_RIGHTS, unix(7)) and tracks it for exit-time release. The name stays
// registered; connections keep flowing into the shared backlog.
func (k *Kernel) AdoptListener(p *Picoprocess, l *Listener) {
	l.addHolder(p.ID)
	p.registerListener(l)
}

// ReleaseListener drops p's hold on l. The listener is torn down (pending
// accepts fail, the name unbinds) only when p was the last holder — a
// co-held listen socket survives any single holder's death, which is what
// a hot-standby master relies on to keep accepting after the primary exits.
func (k *Kernel) ReleaseListener(p *Picoprocess, l *Listener) {
	p.unregisterListener(l)
	if l.dropHolder(p.ID) {
		k.RemoveListener(l)
	}
}

// AdoptStream re-homes a received stream endpoint to p (handle passing).
// The peer endpoint's view must follow: partition gating and the sandbox
// sever walk both key on it, and leaving it pointing at the original
// owner would let a passed pipe tunnel through a partition between its
// real endpoint owners. Checkpoint restores blanket-adopt endpoints the
// parent also keeps; ClaimOwner on the I/O path re-corrects those labels.
func (k *Kernel) AdoptStream(p *Picoprocess, s *Stream) {
	s.ClaimOwner(p.ID)
	p.registerStream(s)
}

// SeverCrossSandboxStreams closes every stream endpoint bridging two
// different sandboxes — the mechanism behind sandbox splits (§3).
func (k *Kernel) SeverCrossSandboxStreams() {
	for _, p := range k.Processes() {
		for _, s := range p.OpenStreams() {
			remote := k.Process(s.RemotePID())
			if remote != nil && remote.SandboxID != p.SandboxID && !s.PeerClosed() {
				s.ForceClose()
			}
		}
	}
}

// --- bulk IPC ---

// CreateIPCStore allocates a bulk-IPC store (gipc).
func (k *Kernel) CreateIPCStore(p *Picoprocess) (*IPCStore, error) {
	if err := k.Gate(p, SysOpen, true); err != nil {
		return nil, err
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.nextSID++
	st := newIPCStore(k.nextSID)
	st.CreatorPID = p.ID
	k.stores[st.ID] = st
	return st, nil
}

// StreamConnectNet connects p to a network-style listener. Unlike
// StreamConnect, the sandbox check is skipped: network reachability is
// governed by the manifest's iptables-style rules, which the PAL checks
// before calling here.
func (k *Kernel) StreamConnectNet(p *Picoprocess, name string) (*Stream, error) {
	if err := k.Gate(p, SysConnect, true); err != nil {
		return nil, err
	}
	s, err := k.streams.connect(name, p.ID)
	if err != nil {
		return nil, err
	}
	p.registerStream(s)
	return s, nil
}

// --- kernel-bypass SysV rings ---

// CreateRingSegment allocates a message ring granted by owner p to the
// picoprocess clientPID (ring.go). The grant itself is owner-local; the
// monitor's policy check runs when the client maps it (MapRingSegment),
// mirroring the gipc create/map split.
func (k *Kernel) CreateRingSegment(p *Picoprocess, clientPID int) (*RingSegment, error) {
	if err := k.Gate(p, SysMmap, true); err != nil {
		return nil, err
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.nextRing++
	r := newRingSegment(k.nextRing, p.ID, clientPID)
	k.rings[r.ID] = r
	return r, nil
}

// CreateSemSegment allocates a semaphore fast-path segment granted by
// owner p to clientPID, seeded with the semaphore's current value.
func (k *Kernel) CreateSemSegment(p *Picoprocess, clientPID int, initial int64) (*SemSeg, error) {
	if err := k.Gate(p, SysMmap, true); err != nil {
		return nil, err
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.nextRing++
	s := newSemSeg(k.nextRing, p.ID, clientPID, initial)
	k.semSegs[s.ID] = s
	return s, nil
}

// MapRingSegment maps a granted message ring into the calling
// picoprocess. The reference monitor's bulk-IPC rule applies: only the
// granted client, and only while it shares a sandbox with the creator.
func (k *Kernel) MapRingSegment(p *Picoprocess, id int) (*RingSegment, error) {
	if err := k.Gate(p, SysMmap, true); err != nil {
		return nil, err
	}
	k.mu.Lock()
	r := k.rings[id]
	k.mu.Unlock()
	if r == nil || r.Revoked() {
		return nil, api.ENOENT
	}
	if p.ID != r.ClientPID {
		return nil, api.EPERM
	}
	if err := k.Policy().CheckBulkIPC(p, r.CreatorPID); err != nil {
		return nil, err
	}
	return r, nil
}

// MapSemSegment is MapRingSegment for semaphore segments.
func (k *Kernel) MapSemSegment(p *Picoprocess, id int) (*SemSeg, error) {
	if err := k.Gate(p, SysMmap, true); err != nil {
		return nil, err
	}
	k.mu.Lock()
	s := k.semSegs[id]
	k.mu.Unlock()
	if s == nil || s.Revoked() {
		return nil, api.ENOENT
	}
	if p.ID != s.ClientPID {
		return nil, api.EPERM
	}
	if err := k.Policy().CheckBulkIPC(p, s.CreatorPID); err != nil {
		return nil, err
	}
	return s, nil
}

// ReleaseRingSegment drops a fully revoked segment from the registry
// (either flavor). The owner calls this after reclaiming ring contents.
func (k *Kernel) ReleaseRingSegment(id int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if r := k.rings[id]; r != nil && r.Revoked() {
		delete(k.rings, id)
	}
	if s := k.semSegs[id]; s != nil && s.Revoked() {
		delete(k.semSegs, id)
	}
}

// revokeRingsLocked revokes every live segment failing keep. Caller holds
// k.mu; revocation itself is lock-free (atomic flag + doorbell).
func (k *Kernel) revokeRingsLocked(keep func(creator, client int) bool) {
	for _, r := range k.rings {
		if !r.Revoked() && !keep(r.CreatorPID, r.ClientPID) {
			r.Revoke()
		}
	}
	for _, s := range k.semSegs {
		if !s.Revoked() && !keep(s.CreatorPID, s.ClientPID) {
			s.Revoke()
		}
	}
}

// RevokeCrossSandboxRings revokes every ring whose endpoints no longer
// share a sandbox (or are dead) — the ring-datapath analogue of
// SeverCrossSandboxStreams, run on every sandbox split. The revocation is
// what the paper's security argument needs: after a split, no shared
// memory bridges the two sides.
func (k *Kernel) RevokeCrossSandboxRings() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.revokeRingsLocked(func(creator, client int) bool {
		cp, cl := k.procs[creator], k.procs[client]
		return cp != nil && cl != nil && cp.SandboxID == cl.SandboxID
	})
}

// RingSegments snapshots the segment registry for invariant checks.
func (k *Kernel) RingSegments() []RingInfo {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]RingInfo, 0, len(k.rings)+len(k.semSegs))
	for _, r := range k.rings {
		out = append(out, RingInfo{ID: r.ID, CreatorPID: r.CreatorPID, ClientPID: r.ClientPID, Revoked: r.Revoked()})
	}
	for _, s := range k.semSegs {
		out = append(out, RingInfo{ID: s.ID, CreatorPID: s.CreatorPID, ClientPID: s.ClientPID, Sem: true, Revoked: s.Revoked()})
	}
	return out
}

// --- misc host services ---

// Now returns host wall-clock microseconds.
func (k *Kernel) Now() int64 { return time.Now().UnixMicro() }

// Random fills buf with host randomness.
func (k *Kernel) Random(buf []byte) (int, error) { return rand.Read(buf) }
