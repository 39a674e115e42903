package apps

import (
	"strconv"
	"strings"

	"graphene/internal/api"
)

// The HTTP-ish wire protocol the servers and client speak:
//
//	request:  "GET <path>\n"
//	response: "OK <len>\n<body>"  or  "ERR <code>\n"
//
// One request per connection, like ApacheBench with keep-alive off.

// LighttpdMain is /bin/lighttpd: a single-process, multi-threaded server,
// matching the paper's lighttpd-with-4-threads configuration.
//
// Usage: lighttpd <addr> <nthreads> <docroot>
func LighttpdMain(p api.OS, argv []string) int {
	if len(argv) < 4 {
		printf(p, "usage: lighttpd ADDR NTHREADS DOCROOT\n")
		return 2
	}
	addr := api.SockAddr(argv[1])
	nthreads := atoiOr(argv[2], 4)
	docroot := argv[3]

	lfd, err := p.Listen(addr)
	if err != nil {
		printf(p, "lighttpd: listen: "+err.Error()+"\n")
		return 1
	}
	// Connection buffers, module state, and the stat cache (~4 MB).
	touchHeap(p, 4<<20)
	threader, ok := p.(api.Threader)
	if !ok {
		return 1
	}
	for i := 1; i < nthreads; i++ {
		if err := threader.SpawnThread(func() { serveLoop(p, lfd, docroot) }); err != nil {
			return 1
		}
	}
	serveLoop(p, lfd, docroot)
	return 0
}

// serveLoop accepts and serves connections until the listener dies.
func serveLoop(p api.OS, lfd int, docroot string) {
	for {
		conn, err := p.Accept(lfd)
		if err != nil {
			return
		}
		handleRequest(p, conn, docroot)
		p.Close(conn)
	}
}

// handleRequest serves one GET.
func handleRequest(p api.OS, conn int, docroot string) {
	line, err := readLine(p, conn)
	if err != nil {
		return
	}
	serveRequestLine(p, conn, docroot, line)
}

// serveRequestLine serves one already-read request line. Split out so the
// fleet worker can intercept its control paths before falling through to
// the same file-serving core.
func serveRequestLine(p api.OS, conn int, docroot, line string) {
	fields := strings.Fields(line)
	if len(fields) != 2 || fields[0] != "GET" {
		_ = writeAll(p, conn, []byte("ERR 400\n"))
		return
	}
	if fields[1] == "/__quit" {
		_ = writeAll(p, conn, []byte("OK 0\n"))
		p.Exit(0)
	}
	body, err := readFile(p, docroot+fields[1])
	if err != nil {
		_ = writeAll(p, conn, []byte("ERR 404\n"))
		return
	}
	_ = writeAll(p, conn, []byte("OK "+strconv.Itoa(len(body))+"\n"))
	_ = writeAll(p, conn, body)
}

// ApacheMain is /bin/apache: a preforked multi-process server, matching
// the paper's Apache-with-4-workers configuration. The parent accepts and
// passes each connection to a worker (Graphene's handle-passing ABI); a
// System V semaphore serializes dispatch, reproducing the accept-mutex
// bottleneck §6.3 identifies as Apache's primary overhead on Graphene.
//
// Usage: apache <addr> <nworkers> <docroot>
func ApacheMain(p api.OS, argv []string) int {
	if len(argv) < 4 {
		printf(p, "usage: apache ADDR NWORKERS DOCROOT\n")
		return 2
	}
	addr := api.SockAddr(argv[1])
	nworkers := atoiOr(argv[2], 4)
	docroot := argv[3]

	passer, ok := p.(api.ConnPasser)
	if !ok {
		return 1
	}
	lfd, err := p.Listen(addr)
	if err != nil {
		printf(p, "apache: listen: "+err.Error()+"\n")
		return 1
	}
	// The parent's configuration and module state (~4 MB), shared
	// copy-on-write with the preforked workers.
	touchHeap(p, 4<<20)

	// The accept mutex: one permit, acquired around each dispatch.
	semID, err := p.Semget(0x41504143 /* "APAC" */, 1, api.IPCCreat)
	if err != nil {
		return 1
	}
	if err := p.Semop(semID, []api.SemBuf{{Num: 0, Op: 1}}); err != nil {
		return 1
	}

	// One dispatch pipe per worker.
	type workerPipes struct{ r, w int }
	pipes := make([]workerPipes, nworkers)
	var workerPIDs []int
	for i := 0; i < nworkers; i++ {
		r, w, err := p.Pipe()
		if err != nil {
			return 1
		}
		pipes[i] = workerPipes{r, w}
		workerR := r
		workerW := w
		inherited := append([]workerPipes(nil), pipes[:i]...)
		pid, err := p.Fork(func(c api.OS) {
			r := workerR
			// Descriptor hygiene: drop the listener, the parent's write
			// end of our own dispatch pipe, and both ends of every
			// earlier worker's pipe that rode along in the fork. A stray
			// read-end reference would keep a dead sibling's pipe alive
			// and mask the EPIPE the parent's dispatch loop relies on.
			_ = c.Close(lfd)
			_ = c.Close(workerW)
			for _, wp := range inherited {
				_ = c.Close(wp.r)
				_ = c.Close(wp.w)
			}
			cp := c.(api.ConnPasser)
			csem, err := c.Semget(0x41504143, 1, 0)
			if err != nil {
				c.Exit(1)
			}
			for {
				conn, err := cp.ReceiveConnection(r)
				if err != nil {
					c.Exit(0)
				}
				// Serialize through the accept mutex, as Apache's worker
				// MPM does around accept.
				if err := c.Semop(csem, []api.SemBuf{{Num: 0, Op: -1}}); err != nil {
					c.Exit(0)
				}
				handleRequest(c, conn, docroot)
				c.Close(conn)
				if err := c.Semop(csem, []api.SemBuf{{Num: 0, Op: 1}}); err != nil {
					c.Exit(0)
				}
			}
		})
		if err != nil {
			return 1
		}
		workerPIDs = append(workerPIDs, pid)
		// The parent never reads dispatch pipes: drop the read end so a
		// worker's death leaves its pipe reader-less and PassConnection
		// reports EPIPE instead of queueing into the void.
		_ = p.Close(r)
	}

	// Dispatch loop: accept and round-robin to live workers. A full
	// dispatch pipe gets a bounded sleep (not a busy spin); a dead worker
	// gets retired and the connection goes to the next worker instead of
	// being dropped. When the last worker dies the master stops serving
	// and tears down.
	sleep := newPollSleeper(p)
	next := 0
	alive := make([]bool, nworkers)
	for i := range alive {
		alive[i] = true
	}
	aliveCount := nworkers
	for aliveCount > 0 {
		conn, err := p.Accept(lfd)
		if err != nil {
			break
		}
		tries := 0
		for aliveCount > 0 && tries < 10000 {
			if !alive[next] {
				next = (next + 1) % nworkers
				continue
			}
			perr := passer.PassConnection(pipes[next].w, conn)
			if perr == nil {
				next = (next + 1) % nworkers
				break
			}
			switch api.ToErrno(perr) {
			case api.EAGAIN:
				next = (next + 1) % nworkers
				sleep.sleepUS(500)
				tries++
			case api.EPIPE, api.EBADF, api.ECONNRESET:
				alive[next] = false
				aliveCount--
				_ = p.Close(pipes[next].w)
				next = (next + 1) % nworkers
			default:
				tries = 10000
			}
		}
		p.Close(conn)
	}

	// Teardown: close the remaining dispatch pipes (each worker's
	// ReceiveConnection fails and it exits), reap every worker so no
	// zombies outlive the master, and remove the accept-mutex semaphore —
	// System V IPC ids persist past process exit (svipc(7)) and would
	// otherwise leak into the next server instance.
	for i, wp := range pipes {
		if alive[i] {
			_ = p.Close(wp.w)
		}
	}
	for _, pid := range workerPIDs {
		_, _ = p.Wait(pid)
	}
	_ = p.SemctlRmid(semID)
	_ = p.Close(lfd)
	return 0
}

// ABMain is /bin/ab, the ApacheBench-like load generator.
//
// Usage: ab <addr> <concurrency> <requests> <path>
//
// It prints "THROUGHPUT <requests> <bytes> <microseconds>" on stdout.
func ABMain(p api.OS, argv []string) int {
	if len(argv) < 5 {
		printf(p, "usage: ab ADDR CONC REQUESTS PATH\n")
		return 2
	}
	addr := api.SockAddr(argv[1])
	conc := atoiOr(argv[2], 1)
	total := atoiOr(argv[3], 100)
	path := argv[4]

	threader, ok := p.(api.Threader)
	if !ok {
		return 1
	}
	start, _ := p.Gettimeofday()
	done := make(chan int64, conc)
	perWorker := total / conc
	for w := 0; w < conc; w++ {
		if err := threader.SpawnThread(func() {
			var bytes int64
			for i := 0; i < perWorker; i++ {
				n, err := fetchOnce(p, addr, path)
				if err != nil {
					break
				}
				bytes += int64(n)
			}
			done <- bytes
		}); err != nil {
			return 1
		}
	}
	var totalBytes int64
	for w := 0; w < conc; w++ {
		totalBytes += <-done
	}
	end, _ := p.Gettimeofday()
	printf(p, "THROUGHPUT "+strconv.Itoa(perWorker*conc)+" "+
		strconv.FormatInt(totalBytes, 10)+" "+strconv.FormatInt(end-start, 10)+"\n")
	return 0
}

// fetchOnce performs one GET, returning the body length.
func fetchOnce(p api.OS, addr api.SockAddr, path string) (int, error) {
	fd, err := p.Connect(addr)
	if err != nil {
		return 0, err
	}
	defer p.Close(fd)
	if err := writeAll(p, fd, []byte("GET "+path+"\n")); err != nil {
		return 0, err
	}
	header, err := readLine(p, fd)
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(header)
	if len(fields) != 2 || fields[0] != "OK" {
		return 0, api.EIO
	}
	want := atoiOr(fields[1], 0)
	got := 0
	buf := make([]byte, 4096)
	for got < want {
		n, err := p.Read(fd, buf)
		if err != nil || n == 0 {
			break
		}
		got += n
	}
	if got != want {
		return got, api.EIO
	}
	return got, nil
}
