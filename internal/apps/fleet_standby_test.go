package apps

import (
	"testing"
	"time"

	"graphene/internal/host"
	"graphene/internal/ipc"
)

// Live tests for the elastic scaler and the hot-standby master, on the
// Graphene personality (the fault plane that kills a master at a named
// point is host-level, so only picoprocesses can run the kill scenario).
// Timing *policy* is pinned by the fake-clock sim (fleet_sim_test.go);
// these tests pin the wiring: real spawns, real listener handover, a real
// election round, real scoreboard adoption.

// TestFleetElasticScalesUpAndDown: sustained closed-loop pressure against
// a deliberately tiny fleet (1 worker, 1 credit) must push the scaler to
// its ceiling; when the load stops, the idle window walks it back down to
// the floor with every retirement a planned exit, not a crash.
func TestFleetElasticScalesUpAndDown(t *testing.T) {
	e, _ := grapheneFleet(t)
	seedDocroot(t, e)
	wait, _, err := e.startMaster(fleetArgs("127.0.0.1:8210", 1,
		"cap=1", "max=4", "scale_up_queue=4", "up_cooldown_ms=30",
		"idle_ms=150", "down_cooldown_ms=30", "shed_ms=600"))
	if err != nil {
		t.Fatal(err)
	}
	waitBoard(t, e, 5*time.Second, "alive=1", func(l string) bool {
		return scoreboardField(l, "alive") == 1
	})
	c := installSink(t, nil)
	lg, err := e.launch("/bin/loadgen", []string{"loadgen", "127.0.0.1:8210", "/www-index",
		"0", "600", "8", "timeout_ms=1000"})
	if err != nil {
		t.Fatal(err)
	}
	// Under pressure the target doubles to the ceiling and the fleet
	// actually reaches it.
	board := waitBoard(t, e, 5*time.Second, "scaled to max", func(l string) bool {
		return scoreboardField(l, "target") == 4 && scoreboardField(l, "alive") == 4
	})
	if ups := scoreboardField(board, "scaleups"); ups < 2 {
		t.Fatalf("scaleups=%d, want >= 2 (1->2->4)", ups)
	}
	if code := lg(t); code != 0 {
		t.Fatalf("loadgen exit = %d", code)
	}
	if c.ok.Load() == 0 {
		t.Fatal("no successful requests under scale-up")
	}
	// Load gone: the fleet drains back to the floor, one worker at a time.
	board = waitBoard(t, e, 10*time.Second, "scaled back down", func(l string) bool {
		return scoreboardField(l, "target") == 1 && scoreboardField(l, "alive") == 1
	})
	if downs := scoreboardField(board, "scaledowns"); downs != 3 {
		t.Fatalf("scaledowns=%d, want 3 (4->3->2->1)", downs)
	}
	if crashes := scoreboardField(board, "crashes"); crashes != 0 {
		t.Fatalf("retirements counted as crashes: %d", crashes)
	}
	drainFleet(t, e, wait)
}

// TestFleetStandbyTakeoverUnderLoad is the master-kill chaos scenario: a
// FaultPlan kills the primary at its Nth maintenance tick, mid-load. The
// hot standby must detect the death (heartbeat EOF), run one epoch-fenced
// election round, adopt the co-held listen socket and the rename-swapped
// scoreboard, respawn the fleet, and resume serving — all while the load
// generator keeps offering traffic.
func TestFleetStandbyTakeoverUnderLoad(t *testing.T) {
	e, g := grapheneFleet(t)
	seedDocroot(t, e)
	const nworkers = 2
	_, _, err := e.startMaster(fleetArgs("127.0.0.1:8211", nworkers,
		"standby=1", "hb_ms=20", "cap=4", "shed_ms=400"))
	if err != nil {
		t.Fatal(err)
	}
	waitBoard(t, e, 5*time.Second, "primary fleet up", func(l string) bool {
		return scoreboardField(l, "alive") == nworkers && scoreboardField(l, "takeovers") == 0
	})
	// Kill the primary at its 10th maintenance tick from now (~50 ms in,
	// mid-load): the fault point makes the kill instant deterministic
	// relative to the supervisor's own schedule.
	g.masterProc.SetFaultPlan(host.NewFaultPlan().Rule("fleet.master.kill", 10, host.FaultKill))

	c := installSink(t, nil)
	lg, err := e.launch("/bin/loadgen", []string{"loadgen", "127.0.0.1:8211", "/www-index",
		"0", "1200", "4", "timeout_ms=1000"})
	if err != nil {
		t.Fatal(err)
	}
	// The standby's scoreboard: takeovers=1, a non-zero election epoch,
	// and a fully respawned fleet.
	board := waitBoard(t, e, 10*time.Second, "standby took over", func(l string) bool {
		return scoreboardField(l, "takeovers") == 1 && scoreboardField(l, "alive") == nworkers
	})
	if epoch := scoreboardField(board, "epoch"); epoch <= 0 {
		t.Fatalf("takeover published no election epoch: %s", board)
	}
	if !g.masterProc.Dead() {
		t.Fatal("fault plan did not kill the primary")
	}
	if code := lg(t); code != 0 {
		t.Fatalf("loadgen exit = %d", code)
	}
	// Continuity: the fleet served real traffic both before and after the
	// kill. The handover window can strand the primary's in-flight
	// requests (bounded by its credits plus the queue); it must not
	// swallow the run.
	ok, errs := c.ok.Load(), c.errs.Load()
	if ok == 0 {
		t.Fatal("no successful requests across the takeover")
	}
	if budget := int64(nworkers*4 + 16); errs > budget {
		t.Fatalf("takeover error budget exceeded: %d > %d (ok=%d)", errs, budget, ok)
	}
	// The promoted master serves new connections.
	g1, err := e.launch("/bin/get1", []string{"get1", "127.0.0.1:8211", "/www-index"})
	if err != nil {
		t.Fatal(err)
	}
	if code := g1(t); code != 0 {
		t.Fatalf("get1 against promoted master = %d", code)
	}
	// Shut the promoted master down cleanly via the stop file; its own
	// chained standby got 'q' and must not fire a second takeover.
	if err := e.seed(fleetSB+".stop", nil); err != nil {
		t.Fatal(err)
	}
	waitBoard(t, e, 10*time.Second, "promoted master drained", func(l string) bool {
		return scoreboardField(l, "draining") == 1 && scoreboardField(l, "alive") == 0
	})
	time.Sleep(300 * time.Millisecond) // give a buggy chained standby time to misfire
	if data, err := e.read(fleetSB); err == nil {
		if n := scoreboardField(string(data), "takeovers"); n != 1 {
			t.Fatalf("chained standby fired a spurious takeover: takeovers=%d", n)
		}
	}
}

// TestFleetTakeoverWithinElectionWindow pins the detection-to-serving
// budget: from the instant the primary dies to the standby's first
// successful response must fit inside one election window plus the
// heartbeat interval and the respawn cost — the paper-level claim that a
// hot standby makes master death a blip, not an outage.
func TestFleetTakeoverWithinElectionWindow(t *testing.T) {
	e, g := grapheneFleet(t)
	seedDocroot(t, e)
	_, _, err := e.startMaster(fleetArgs("127.0.0.1:8212", 2,
		"standby=1", "hb_ms=20"))
	if err != nil {
		t.Fatal(err)
	}
	waitBoard(t, e, 5*time.Second, "fleet up", func(l string) bool {
		return scoreboardField(l, "alive") == 2
	})
	// Kill the primary directly at the host — the hard variant, no fault
	// plan, no cooperation.
	killedAt := time.Now()
	g.masterProc.Exit(137)
	// First successful response from the promoted master.
	var servedAt time.Time
	for {
		g1, err := e.launch("/bin/get1", []string{"get1", "127.0.0.1:8212", "/www-index"})
		if err != nil {
			t.Fatal(err)
		}
		if g1(t) == 0 {
			servedAt = time.Now()
			break
		}
		if time.Since(killedAt) > 5*time.Second {
			t.Fatal("promoted master never served")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Budget: heartbeat EOF detection is immediate (pipe close), the
	// election round is bounded by ipc.ElectionWindow, spawning 2 workers
	// (spawn ships no memory) is ~1 ms each; 500 ms is the acceptance
	// ceiling with generous scheduler slack.
	budget := ipc.ElectionWindow + 450*time.Millisecond
	if gap := servedAt.Sub(killedAt); gap > budget {
		t.Fatalf("takeover gap %v exceeds %v (election window %v)",
			gap, budget, ipc.ElectionWindow)
	}
	board := waitBoard(t, e, 5*time.Second, "takeover recorded", func(l string) bool {
		return scoreboardField(l, "takeovers") == 1
	})
	_ = board
	// Cleanup: stop the promoted master.
	if err := e.seed(fleetSB+".stop", nil); err != nil {
		t.Fatal(err)
	}
	waitBoard(t, e, 10*time.Second, "drained", func(l string) bool {
		return scoreboardField(l, "draining") == 1 && scoreboardField(l, "alive") == 0
	})
}
