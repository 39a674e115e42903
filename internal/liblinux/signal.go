package liblinux

import (
	"sync"

	"graphene/internal/api"
)

// defaultFatal reports whether sig terminates a process by default.
func defaultFatal(sig api.Signal) bool {
	switch sig {
	case api.SIGCHLD, api.SIGCONT, api.SIGSTOP:
		return false
	default:
		return true
	}
}

// signalState implements libLinux signaling (§4.2): sigaction structures
// track masks and handlers; local signals call handlers directly; remote
// signals arrive over RPC and are marked pending, with handlers invoked on
// the next libOS entry — matching Linux's deliver-on-syscall-return rule.
type signalState struct {
	proc *Process

	mu          sync.Mutex
	handlers    map[api.Signal]api.SigHandler
	disposition map[api.Signal]string
	pending     []api.Signal
	terminating bool
	// intr is closed (and replaced) on every interrupting delivery —
	// a caught signal or a default-fatal one. Blocking syscalls grab the
	// current channel at entry (interruptChan) and select against it
	// while parked, so a signal wakes them with EINTR per signal(7).
	// Ignored and default-ignored signals do not interrupt.
	intr chan struct{}
}

func newSignalState(p *Process) *signalState {
	return &signalState{
		proc:        p,
		handlers:    make(map[api.Signal]api.SigHandler),
		disposition: make(map[api.Signal]string),
		intr:        make(chan struct{}),
	}
}

// interruptChan returns the channel the next interrupting signal closes.
// Grab it before parking: a delivery after the grab closes exactly this
// channel, and the replacement rule means a channel obtained here is
// never already stale from an earlier, drained signal.
func (s *signalState) interruptChan() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.intr
}

// interruptLocked wakes parked blocking syscalls. Caller holds s.mu.
func (s *signalState) interruptLocked() {
	close(s.intr)
	s.intr = make(chan struct{})
}

func (s *signalState) sigaction(sig api.Signal, handler api.SigHandler, disposition string) error {
	if sig <= 0 || sig >= api.NumSignals {
		return api.EINVAL
	}
	if sig == api.SIGKILL || sig == api.SIGSTOP {
		return api.EINVAL // cannot be caught or ignored
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch disposition {
	case api.SigIgn:
		delete(s.handlers, sig)
		s.disposition[sig] = api.SigIgn
	case api.SigDfl, "":
		if handler != nil {
			s.handlers[sig] = handler
			s.disposition[sig] = "handler"
		} else {
			delete(s.handlers, sig)
			delete(s.disposition, sig)
		}
	default:
		return api.EINVAL
	}
	return nil
}

// deliver marks sig pending (handler case), drops it (ignored), or
// terminates the process (default-fatal). Safe from any goroutine,
// including the IPC helper.
func (s *signalState) deliver(sig api.Signal) api.Errno {
	if sig <= 0 || sig >= api.NumSignals {
		return api.EINVAL
	}
	s.mu.Lock()
	if s.terminating {
		s.mu.Unlock()
		return 0
	}
	if sig != api.SIGKILL {
		switch s.disposition[sig] {
		case "handler":
			s.pending = append(s.pending, sig)
			s.interruptLocked()
			s.mu.Unlock()
			return 0
		case api.SigIgn:
			s.mu.Unlock()
			return 0
		}
	}
	if !defaultFatal(sig) {
		s.mu.Unlock()
		return 0
	}
	s.terminating = true
	s.interruptLocked()
	s.mu.Unlock()
	// Default disposition: terminate. Runs off the caller's goroutine so a
	// remote kill never blocks the IPC helper (§4.1's deadlock rule).
	go s.proc.doExit(128+int(sig), sig)
	return 0
}

// drain invokes handlers for pending signals — the libOS's analogue of
// delivering signals on return from a system call.
func (s *signalState) drain() {
	for {
		s.mu.Lock()
		if len(s.pending) == 0 {
			s.mu.Unlock()
			return
		}
		sig := s.pending[0]
		s.pending = s.pending[1:]
		h := s.handlers[sig]
		s.mu.Unlock()
		if h != nil {
			h(sig)
		}
	}
}

// resetHandlers restores default dispositions across exec.
func (s *signalState) resetHandlers() {
	s.mu.Lock()
	s.handlers = make(map[api.Signal]api.SigHandler)
	s.disposition = make(map[api.Signal]string)
	s.pending = nil
	s.mu.Unlock()
}

// dispositions snapshots non-default dispositions for checkpointing (only
// ignore survives fork meaningfully; handler funcs travel with childFn).
func (s *signalState) dispositions() map[api.Signal]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[api.Signal]string, len(s.disposition))
	for k, v := range s.disposition {
		out[k] = v
	}
	return out
}

func (s *signalState) restoreDispositions(d map[api.Signal]string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for sig, disp := range d {
		if disp == api.SigIgn {
			s.disposition[sig] = api.SigIgn
		}
	}
}
