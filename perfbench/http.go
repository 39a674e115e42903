package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"graphene/internal/api"
	"graphene/internal/liblinux"
)

// http: an open loop at a fixed rate against /bin/httpd-fleet with one
// worker per CPU. The benchmark's generator is a guest program with one
// thread per CPU, each with at most one connection open; request j is due
// at j/rate after the window opens, whoever sends it. Latency is timed
// from the due time, so a generator that falls behind shows it.

var httpWorkload = workload{name: "http", setup: setupHTTP}

const (
	httpGen       = "/bin/perfbench-loadgen"
	httpAddr      = "127.0.0.1:8080"
	httpBoard     = "/perfbench-board"
	httpDocroot   = "/www"
	httpTraceRing = 8192

	httpRate   = 8000 // offered requests per second
	httpReqs   = 8000 // request list length, whole blocks; the window cycles through it
	httpWarmup = 3000 // requests offered in set-up, before the window
	// httpTimeout is the client's deadline. The fleet sheds a request it
	// cannot dispatch within 400 ms; the client waits well past that.
	httpTimeout = 5 * time.Second
	// Small documents are 100 to 200 bytes, the pages the repository's
	// web-server experiments serve (internal/bench/fig4.go, httpd.go).
	// Large ones, 16 to 32 KiB, have no source: they make responses that
	// take several stream reads run too.
	httpSmall    = 12
	httpSmallMin = 100
	httpSmallMax = 200
	httpLarge    = 4
	httpLargeMin = 16 << 10
	httpLargeMax = 32 << 10
	// Of every 20 requests, 17 are for a small document and 3 for a large
	// one. No source gives these shares: they only make sure both paths
	// run, small documents the most often (README.md).
	httpSmallReqs = 17
	httpLargeReqs = 3

	prSetTimerslack = 29 // prctl option, linux/prctl.h
)

// errShed is the fleet answering ERR 503: it refused the request.
var errShed = errors.New("shed: ERR 503")

type doc struct {
	req   []byte // "GET <path>\n"
	class int    // classSmall or classLarge
	size  int
	sum   uint64 // FNV-1a of the body
}

func genHTTP(seed int64) (bodies map[string][]byte, docs []doc, reqs []int) {
	r := rand.New(rand.NewSource(seed))
	bodies = make(map[string][]byte)
	sizes := append(spaced(r, httpSmall, httpSmallMin, httpSmallMax), spaced(r, httpLarge, httpLargeMin, httpLargeMax)...)
	for i, size := range sizes {
		class := classSmall
		if i >= httpSmall {
			class = classLarge
		}
		body := make([]byte, size)
		r.Read(body)
		path := "/doc" + strconv.Itoa(i)
		bodies[path] = body
		h := fnv.New64a()
		h.Write(body)
		docs = append(docs, doc{req: []byte("GET " + path + "\n"), class: class, size: size, sum: h.Sum64()})
	}
	// Each class's documents are requested in turn, so each is requested
	// equally often.
	first, count, n := [2]int{0, httpSmall}, [2]int{httpSmall, httpLarge}, [2]int{}
	reqs = mix(r, httpReqs, httpSmallReqs, httpLargeReqs)
	for j, k := range reqs {
		reqs[j] = first[k] + n[k]%count[k]
		n[k]++
	}
	return bodies, docs, reqs
}

type httpSession struct {
	e      *env
	docs   []doc
	reqs   []int
	conns  int
	master *liblinux.LaunchResult
	gen    *liblinux.LaunchResult
	ready  chan error
	start  chan time.Time // carries the window's deadline; closed to stop
	done   chan tally

	board0, board1 string // scoreboard after set-up and after the drain
}

func setupHTTP(seed int64, tp *probe) (session, error) {
	bodies, docs, reqs := genHTTP(seed)
	s := &httpSession{
		docs: docs, reqs: reqs, conns: runtime.NumCPU(),
		ready: make(chan error, 1),
		start: make(chan time.Time),
		done:  make(chan tally, 1),
	}
	e, err := boot(map[string]api.Program{httpGen: s.generator}, tp, httpTraceRing)
	if err != nil {
		return nil, err
	}
	s.e = e
	if err := e.Kernel.FS.MkdirAll(httpDocroot, 0755); err != nil {
		return nil, fmt.Errorf("docroot: %w", err)
	}
	for path, body := range bodies {
		if err := e.Kernel.FS.WriteFile(httpDocroot+path, body, 0644); err != nil {
			return nil, fmt.Errorf("write %s: %w", path, err)
		}
	}
	workers := strconv.Itoa(runtime.NumCPU())
	// A drain deadline of 250 ms bounds teardown: half the drains run to
	// the deadline (README.md).
	if s.master, err = e.Launch("/bin/httpd-fleet", []string{httpAddr, workers, httpDocroot, "sb=" + httpBoard, "drain_ms=250"}); err != nil {
		return nil, fmt.Errorf("launch fleet: %w", err)
	}
	if err := s.awaitBoard("alive=" + workers); err != nil {
		return nil, err
	}
	if s.gen, err = e.Launch(httpGen, nil); err != nil {
		return nil, fmt.Errorf("launch generator: %w", err)
	}
	if err := awaitReady(s.ready, s.gen); err != nil {
		return nil, fmt.Errorf("http warm-up: %w", err)
	}
	s.board0 = s.readBoard()
	return s, nil
}

func (s *httpSession) env() *env { return s.e }

func (s *httpSession) readBoard() string {
	b, _ := s.e.Kernel.FS.ReadFile(httpBoard) // missing until the first publish
	return string(b)
}

// awaitBoard waits until the fleet's scoreboard shows field (key=value).
func (s *httpSession) awaitBoard(field string) error {
	deadline := time.Now().Add(setupTimeout)
	for time.Now().Before(deadline) {
		if slices.Contains(strings.Fields(s.readBoard()), field) {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("fleet scoreboard never showed %s: %q", field, s.readBoard())
}

// generator warms the fleet up, then offers one window of load if asked.
func (s *httpSession) generator(p api.OS, _ []string) int {
	s.e.watch(p)
	g := s.e.os(p)
	// A request the fleet refuses mid-write must fail that request with
	// EPIPE, not kill the generator.
	if err := g.Sigaction(api.SIGPIPE, nil, api.SigIgn); err != nil {
		s.ready <- fmt.Errorf("ignore SIGPIPE: %w", err)
		return 1
	}
	// The warm-up sends back to back (every request is due at once), so
	// set-up time also shows how fast the fleet serves.
	if t := s.offer(g, 0, time.Now(), 0, httpWarmup); t.failed > 0 {
		s.ready <- fmt.Errorf("%d of %d warm-up requests failed", t.failed, t.attempted)
		return 1
	}
	s.ready <- nil
	deadline, ok := <-s.start
	if !ok {
		return 0
	}
	begin := time.Now()
	t := s.offer(g, httpWarmup, begin, time.Second/httpRate, int(deadline.Sub(begin)*httpRate/time.Second))
	t.elapsed = time.Since(begin)
	s.done <- t
	<-s.start // stay up until close, so the window's end state can be read
	return 0
}

// offer sends n requests open loop, request j due at begin + j*gap, with
// request j going out on connection j mod conns (one guest thread each).
// first offsets into the request list.
func (s *httpSession) offer(g api.OS, first int, begin time.Time, gap time.Duration, n int) tally {
	results := make(chan tally, s.conns)
	for c := 1; c < s.conns; c++ {
		c := c
		if err := g.(api.Threader).SpawnThread(func() { results <- s.conn(g, c, first, begin, gap, n) }); err != nil {
			results <- tally{attempted: 1, failed: 1}
		}
	}
	t := s.conn(g, 0, first, begin, gap, n)
	for c := 1; c < s.conns; c++ {
		t.add(<-results)
	}
	return t
}

func (s *httpSession) conn(g api.OS, c, first int, begin time.Time, gap time.Duration, n int) tally {
	// Go's timers wake up to a millisecond late, eight request gaps at this
	// rate; nanosleep on a thread with 1 µs timer slack wakes within
	// microseconds of the due time.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if _, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0); errno != 0 {
		return tally{attempted: 1, failed: 1}
	}
	var t tally
	buf := make([]byte, httpLargeMax+64)
	for j := c; j < n; j += s.conns {
		due := begin.Add(time.Duration(j) * gap)
		if wait := time.Until(due); wait > 0 {
			ts := syscall.NsecToTimespec(int64(wait))
			_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait
		}
		sent, cpu0 := time.Now(), s.e.opCPU()
		d := s.docs[s.reqs[(first+j)%len(s.reqs)]]
		err := s.fetch(g, d, buf, due.Add(httpTimeout))
		t.record(d.class, time.Since(due), s.e.opCPU()-cpu0, err)
		t.lag = append(t.lag, int64(sent.Sub(due)))
	}
	return t
}

// fetch performs one request on a fresh connection and checks the served
// document's length and content hash.
func (s *httpSession) fetch(g api.OS, d doc, buf []byte, deadline time.Time) error {
	fd, err := g.Connect(httpAddr)
	if err != nil {
		return fmt.Errorf("connect: %w", err)
	}
	err = exchange(g, fd, d, buf, deadline)
	if cerr := g.Close(fd); err == nil && cerr != nil {
		err = fmt.Errorf("close: %w", cerr)
	}
	return err
}

func exchange(g api.OS, fd int, d doc, buf []byte, deadline time.Time) error {
	for off := 0; off < len(d.req); {
		n, err := g.Write(fd, d.req[off:])
		if err != nil {
			return fmt.Errorf("write request: %w", err)
		}
		off += n
	}
	n, body := 0, -1 // bytes read; offset of the body once the header is in
	for {
		if body < 0 {
			if i := bytes.IndexByte(buf[:n], '\n'); i >= 0 {
				status, arg, _ := strings.Cut(string(buf[:i]), " ")
				switch {
				case status == "ERR" && arg == "503":
					return errShed
				case status != "OK":
					return fmt.Errorf("response %q", buf[:i])
				case arg != strconv.Itoa(d.size):
					return wrong("served length %s, want %d", arg, d.size)
				}
				body = i + 1
			}
		}
		if body >= 0 && n >= body+d.size {
			h := fnv.New64a()
			h.Write(buf[body:n])
			if n > body+d.size || h.Sum64() != d.sum {
				return wrong("served %d body bytes that do not match the %d-byte document", n-body, d.size)
			}
			return nil
		}
		if n == len(buf) {
			return wrong("response overflows %d bytes", len(buf))
		}
		remain := time.Until(deadline)
		if remain < time.Microsecond { // Poll waits forever on 0
			return api.ETIMEDOUT
		}
		if idx, err := g.(api.Poller).Poll([]int{fd}, remain.Microseconds()); err != nil || idx != 0 {
			return fmt.Errorf("poll: %d, %v", idx, err)
		}
		m, err := g.Read(fd, buf[n:])
		if err != nil {
			return fmt.Errorf("read response: %w", err)
		}
		if m == 0 {
			return fmt.Errorf("connection closed after %d bytes", n)
		}
		n += m
	}
}

func (s *httpSession) run(d time.Duration) (tally, error) {
	s.start <- time.Now().Add(d)
	select {
	case t := <-s.done:
		return t, nil
	case <-time.After(d + opTimeout):
		return tally{}, errors.New("http generator overran its window")
	}
}

// close stops the generator, drains the fleet through its stop file and
// keeps the final scoreboard.
func (s *httpSession) close() error {
	close(s.start)
	err := awaitExit("http generator", s.gen, opTimeout)
	if werr := s.e.Kernel.FS.WriteFile(httpBoard+".stop", nil, 0644); werr != nil {
		return errors.Join(err, fmt.Errorf("stop fleet: %w", werr))
	}
	err = errors.Join(err, awaitExit("fleet master", s.master, opTimeout))
	s.board1 = s.readBoard()
	return err
}

// fleet reports the scoreboard counters that moved between set-up and
// the end of the drain.
func (s *httpSession) fleet() (shed, crashes, respawns int) {
	delta := func(key string) int { return boardField(s.board1, key) - boardField(s.board0, key) }
	return delta("shed"), delta("crashes"), delta("respawns")
}

func boardField(line, key string) int {
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			n, _ := strconv.Atoi(v)
			return n
		}
	}
	return 0
}
