package liblinux

import (
	"strconv"
	"testing"
	"time"

	"graphene/internal/api"
	"graphene/internal/host"
)

// TestCheckpointDeltaScalesWithDirtyPages pins the dirty-page tracking
// contract behind the pipelined fork: an incremental checkpoint ships the
// write working set, not the resident set. A process with a large heap
// dirties 1%, 50%, and 100% of its pages between deltas; the image sizes
// must track the dirty fraction.
func TestCheckpointDeltaScalesWithDirtyPages(t *testing.T) {
	rt, man := testEnv(t)
	const heapPages = 200

	dirtyReq := make(chan int)
	dirtyDone := make(chan struct{})
	prog := func(p api.OS, argv []string) int {
		brk0, err := p.Brk(0)
		if err != nil {
			return 1
		}
		if _, err := p.Brk(brk0 + heapPages*host.PageSize); err != nil {
			return 2
		}
		page := make([]byte, host.PageSize)
		for i := range page {
			page[i] = byte(i)
		}
		for i := 0; i < heapPages; i++ {
			if err := p.MemWrite(brk0+uint64(i)*host.PageSize, page); err != nil {
				return 3
			}
		}
		dirtyDone <- struct{}{} // heap resident; baseline can be taken
		for n := range dirtyReq {
			for i := 0; i < n; i++ {
				// A 2-byte write dirties the whole page in the bitmap.
				if err := p.MemWrite(brk0+uint64(i)*host.PageSize, []byte{byte(n), byte(i)}); err != nil {
					return 4
				}
			}
			dirtyDone <- struct{}{}
		}
		return 0
	}
	if err := rt.RegisterProgram("/bin/sweep", prog); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Launch(man, "/bin/sweep", []string{"/bin/sweep"})
	if err != nil {
		t.Fatal(err)
	}
	<-dirtyDone

	// The full dump carries the whole resident heap and resets the bitmap.
	full, err := res.Process.CheckpointToBytes()
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < heapPages*host.PageSize {
		t.Fatalf("full checkpoint %d bytes, want >= %d (resident heap)", len(full), heapPages*host.PageSize)
	}
	// Nothing dirtied since the full dump: the delta is metadata only.
	empty, err := res.Process.CheckpointDeltaBytes()
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) >= host.PageSize {
		t.Fatalf("empty delta %d bytes, want < one page", len(empty))
	}

	sizes := make(map[int]int)
	for _, n := range []int{heapPages / 100, heapPages / 2, heapPages} { // 1%, 50%, 100%
		dirtyReq <- n
		<-dirtyDone
		d, err := res.Process.CheckpointDeltaBytes()
		if err != nil {
			t.Fatal(err)
		}
		sizes[n] = len(d)
	}
	close(dirtyReq)

	for _, n := range []int{heapPages / 100, heapPages / 2, heapPages} {
		payload := sizes[n] - len(empty)
		lo, hi := n*host.PageSize, n*(host.PageSize+512)+host.PageSize
		if payload < lo || payload > hi {
			t.Errorf("delta with %d dirty pages: payload %d bytes, want in [%d, %d]", n, payload, lo, hi)
		}
	}
	if !(sizes[heapPages/100] < sizes[heapPages/2] && sizes[heapPages/2] < sizes[heapPages]) {
		t.Errorf("delta sizes not monotonic in dirty fraction: %v", sizes)
	}

	select {
	case <-res.Done:
		if res.ExitCode() != 0 {
			t.Fatalf("sweep exited %d", res.ExitCode())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sweep did not exit")
	}
}

// TestZygoteSpawnFreshState pins spawn's contract: each spawn captures the
// parent's state afresh, so the child sees the parent's *current*
// environment and descriptors, not those of an earlier spawn of the same
// program.
func TestZygoteSpawnFreshState(t *testing.T) {
	rt, man := testEnv(t)
	if err := rt.RegisterProgram("/bin/worker", func(c api.OS, argv []string) int {
		if len(argv) < 3 {
			return 10
		}
		want := argv[1]
		if got := c.Getenv("GEN"); got != want {
			return 11 // stale environment from an earlier spawn
		}
		fd, err := strconv.Atoi(argv[2])
		if err != nil {
			return 12
		}
		buf := make([]byte, 32)
		n, err := c.Read(fd, buf)
		if err != nil || string(buf[:n]) != "round-"+want {
			return 13 // stale or missing inherited descriptor
		}
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	code := run(t, rt, man, func(p api.OS, argv []string) int {
		for gen := 1; gen <= 2; gen++ {
			g := strconv.Itoa(gen)
			p.Setenv("GEN", g)
			wfd, err := p.Open("/round"+g+".txt", api.OCreate|api.OWrOnly, 0644)
			if err != nil {
				return 1
			}
			if _, err := p.Write(wfd, []byte("round-"+g)); err != nil {
				return 2
			}
			if err := p.Close(wfd); err != nil {
				return 3
			}
			rfd, err := p.Open("/round"+g+".txt", api.ORdOnly, 0)
			if err != nil {
				return 4
			}
			pid, err := p.Spawn("/bin/worker", []string{"/bin/worker", g, strconv.Itoa(rfd)})
			if err != nil {
				return 5
			}
			res, err := p.Wait(pid)
			if err != nil {
				return 6
			}
			if res.ExitCode != 0 {
				return res.ExitCode
			}
			if err := p.Close(rfd); err != nil {
				return 7
			}
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("spawn freshness failed at step %d", code)
	}
}
