package mp

import (
	"fmt"
	"os"
	"syscall"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/core"
	"github.com/recursive-restart/mercury/internal/fault"
	"github.com/recursive-restart/mercury/internal/rt"
	"github.com/recursive-restart/mercury/internal/station"
	"github.com/recursive-restart/mercury/internal/trace"
)

// TestMain doubles as the component-child entry point: when the supervisor
// re-executes the test binary with the child spec in the environment, run
// the component instead of the test suite.
func TestMain(m *testing.M) {
	if cfg, ok := SpecFromEnv(); ok {
		if err := RunChild(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "child:", err)
			os.Exit(3)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// mpScale compresses the calibrated seconds for the live children.
const mpScale = 100

func startSupervisor(t *testing.T, tree string) *Supervisor {
	t.Helper()
	sup, err := StartSupervisor(SupervisorConfig{
		ListenAddr: "127.0.0.1:0",
		Scale:      mpScale,
		TreeName:   tree,
		Seed:       1,
	})
	if err != nil {
		t.Fatalf("StartSupervisor: %v", err)
	}
	t.Cleanup(sup.Stop)
	return sup
}

func TestMultiProcessBoot(t *testing.T) {
	sup := startSupervisor(t, "IV")
	if !sup.AllServing() {
		t.Fatal("not all components serving")
	}
	// Every non-broker component is a real OS process with its own pid.
	pids := map[int]bool{}
	for _, comp := range sup.Components() {
		if comp == station.MBus {
			continue
		}
		pid := sup.ChildPID(comp)
		if pid == 0 {
			t.Fatalf("%s has no child process", comp)
		}
		if pids[pid] {
			t.Fatalf("duplicate pid %d", pid)
		}
		pids[pid] = true
	}
}

func TestMultiProcessCrashRecovery(t *testing.T) {
	sup := startSupervisor(t, "IV")
	oldPID := sup.ChildPID(station.RTU)
	if err := sup.Inject(fault.Fault{Manifest: station.RTU}); err != nil {
		t.Fatal(err)
	}
	if err := sup.WaitRecovered(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	newPID := sup.ChildPID(station.RTU)
	if newPID == 0 || newPID == oldPID {
		t.Fatalf("rtu child not replaced: %d -> %d", oldPID, newPID)
	}
	// Only rtu's process was cycled.
	var restarts int
	sup.Disp.Call(func() { restarts, _ = sup.Mgr.Restarts(station.SES) })
	if restarts != 0 {
		t.Fatal("ses restarted during an rtu-only recovery")
	}
}

func TestMultiProcessHangRecovery(t *testing.T) {
	sup := startSupervisor(t, "IV")
	oldPID := sup.ChildPID(station.RTU)
	if err := sup.Inject(fault.Fault{Manifest: station.RTU, Hang: true}); err != nil {
		t.Fatal(err)
	}
	if err := sup.WaitRecovered(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if sup.ChildPID(station.RTU) == oldPID {
		t.Fatal("hung rtu child was not replaced")
	}
}

// TestMultiProcessCrossProcessInducedFailure is the distributed version of
// §4.3: restarting the ses process makes the real str process crash (exit)
// via the resynchronisation protocol over TCP, and REC recovers both.
func TestMultiProcessCrossProcessInducedFailure(t *testing.T) {
	sup := startSupervisor(t, "III")
	strPID := sup.ChildPID(station.STR)
	if err := sup.Inject(fault.Fault{Manifest: station.SES}); err != nil {
		t.Fatal(err)
	}
	if err := sup.WaitRecovered(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if sup.ChildPID(station.STR) == strPID {
		t.Fatal("str process survived a ses restart under tree III")
	}
	var strRestarts int
	sup.Disp.Call(func() { strRestarts, _ = sup.Mgr.Restarts(station.STR) })
	if strRestarts == 0 {
		t.Fatal("induced str failure was not recovered")
	}
}

func TestMultiProcessBrokerOutage(t *testing.T) {
	sup := startSupervisor(t, "IV")
	if err := sup.Inject(fault.Fault{Manifest: station.MBus}); err != nil {
		t.Fatal(err)
	}
	if err := sup.WaitRecovered(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The outage must not have cycled any child processes.
	for _, comp := range sup.Components() {
		if comp == station.MBus {
			continue
		}
		var n int
		sup.Disp.Call(func() { n, _ = sup.Mgr.Restarts(comp) })
		if n != 0 {
			t.Fatalf("%s restarted during broker outage", comp)
		}
	}
}

func TestUnknownTreeRejectedMP(t *testing.T) {
	if _, err := StartSupervisor(SupervisorConfig{TreeName: "bogus", Scale: mpScale}); err == nil {
		t.Fatal("unknown tree accepted")
	}
}

func TestChildSpecEnvRoundTrip(t *testing.T) {
	in := ChildConfig{
		Component: "ses", BusAddr: "127.0.0.1:9", Scale: 50, Stretch: 1.24,
		Seed: 42, Layout: "split", Incarnation: 3,
	}
	var keys []string
	for _, kv := range in.Env() {
		for i := 0; i < len(kv); i++ {
			if kv[i] == '=' {
				os.Setenv(kv[:i], kv[i+1:])
				keys = append(keys, kv[:i])
				break
			}
		}
	}
	defer func() {
		for _, k := range keys {
			os.Unsetenv(k)
		}
	}()
	got, ok := SpecFromEnv()
	if !ok {
		t.Fatal("SpecFromEnv not ok")
	}
	if got != in {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, in)
	}
}

func TestRunChildValidation(t *testing.T) {
	if err := RunChild(ChildConfig{}); err == nil {
		t.Fatal("empty child config accepted")
	}
	if err := RunChild(ChildConfig{Component: "mbus", BusAddr: "x", Scale: 1}); err == nil {
		t.Fatal("mbus child accepted (broker lives in the supervisor)")
	}
}

// TestMultiProcessExternalKillMidTraffic kills a child with SIGKILL from
// outside the supervisor — the process dies at an arbitrary point, quite
// possibly mid-frame-write. The half-written frame must not wedge the
// broker, and the reaper must surface the death so REC replaces the pid.
func TestMultiProcessExternalKillMidTraffic(t *testing.T) {
	sup := startSupervisor(t, "IV")
	oldPID := sup.ChildPID(station.RTU)
	if oldPID == 0 {
		t.Fatal("rtu has no child process")
	}
	if err := syscall.Kill(oldPID, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	// The supervisor learns of the death from its reaper, not from the
	// killer; wait for that before waiting for the recovery itself.
	deadline := time.Now().Add(10 * time.Second)
	for sup.ChildPID(station.RTU) == oldPID {
		if time.Now().After(deadline) {
			t.Fatal("supervisor never noticed the external SIGKILL")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := sup.WaitRecovered(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	newPID := sup.ChildPID(station.RTU)
	if newPID == 0 || newPID == oldPID {
		t.Fatalf("externally killed rtu child not replaced: %d -> %d", oldPID, newPID)
	}
	if !sup.AllServing() {
		t.Fatal("station not fully serving after external kill recovery")
	}
}

// cellOracle always recommends the failed component's own cell (a ladder
// cut to its first rung never escalates), keeping a hard-fault storm
// scoped to one child so the restart *budget* — not the escalation ladder
// — is what ends it.
func cellOracle() *core.Policy {
	return core.NewLadderPolicy("cell", func(ladder []core.Action) []core.Action { return ladder[:1] })
}

// TestMultiProcessHardFaultGivesUp drives the restart budget end-to-end
// across real processes: a hard fault re-manifests after every restart, so
// the policy must eventually record a GiveUp and stop cycling the child.
func TestMultiProcessHardFaultGivesUp(t *testing.T) {
	// Real child respawns cost seconds of calibrated time each, so the
	// default 2-minute budget window can prune history faster than six
	// restarts accrue; widen it so the budget logic itself is what ends
	// the storm.
	recp := rt.RECParamsForScale(mpScale)
	recp.BudgetWindow = 30 * time.Minute
	sup, err := StartSupervisor(SupervisorConfig{
		ListenAddr: "127.0.0.1:0",
		Scale:      mpScale,
		TreeName:   "IV",
		Seed:       1,
		Policy:     cellOracle(),
		RECParams:  &recp,
	})
	if err != nil {
		t.Fatalf("StartSupervisor: %v", err)
	}
	t.Cleanup(sup.Stop)
	if err := sup.Inject(fault.Fault{Manifest: station.RTU, Hard: true}); err != nil {
		t.Fatal(err)
	}
	gaveUp := func() bool {
		return len(sup.Log.Filter(func(e trace.Event) bool { return e.Kind == trace.GiveUp })) > 0
	}
	deadline := time.Now().Add(90 * time.Second)
	for !gaveUp() {
		if time.Now().After(deadline) {
			t.Fatal("policy never gave up on a hard fault")
		}
		time.Sleep(50 * time.Millisecond)
	}
	// After giving up, the abandoned component must stop being cycled.
	var before int
	sup.Disp.Call(func() { before, _ = sup.Mgr.Restarts(station.RTU) })
	time.Sleep(2 * time.Second)
	var after int
	sup.Disp.Call(func() { after, _ = sup.Mgr.Restarts(station.RTU) })
	if after != before {
		t.Fatalf("rtu still cycling after give-up: %d -> %d restarts", before, after)
	}
}
