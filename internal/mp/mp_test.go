package mp

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/assemble"
	"github.com/recursive-restart/mercury/internal/bus"
	"github.com/recursive-restart/mercury/internal/core"
	"github.com/recursive-restart/mercury/internal/fault"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/rt"
	"github.com/recursive-restart/mercury/internal/station"
	"github.com/recursive-restart/mercury/internal/trace"
	"github.com/recursive-restart/mercury/internal/trace/tracetest"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// TestMain doubles as the component-child entry point: when the supervisor
// re-executes the test binary with the child spec in the environment, run
// the component instead of the test suite. A binary re-executed with
// envSupervisor set runs a supervisor instead (runTestSupervisor); its own
// children carry the child spec, so they still run components.
func TestMain(m *testing.M) {
	if cfg, ok := SpecFromEnv(); ok {
		if err := RunChild(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "child:", err)
			os.Exit(3)
		}
		os.Exit(0)
	}
	if addr := os.Getenv(envSupervisor); addr != "" {
		runTestSupervisor(addr)
	}
	os.Exit(m.Run())
}

// envSupervisor carries the broker address a re-executed test binary runs
// a tree-IV supervisor on.
const envSupervisor = "MERCURY_MP_TEST_SUPERVISOR"

// runTestSupervisor boots a supervisor on addr, prints one "child <pid>"
// line per component process and then "booted", and runs until it is
// killed.
func runTestSupervisor(addr string) {
	sup, err := StartSupervisor(rt.NodeConfig{ListenAddr: addr, Scale: mpScale, TreeName: "IV", Seed: 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "supervisor:", err)
		os.Exit(3)
	}
	for _, comp := range sup.Components() {
		if pid := sup.ChildPID(comp); pid != 0 {
			fmt.Println("child", pid)
		}
	}
	fmt.Println("booted")
	select {}
}

// mpScale compresses the calibrated seconds for the live children.
const mpScale = 100

func startSupervisor(t *testing.T, tree string) *Supervisor {
	t.Helper()
	sup, err := StartSupervisor(rt.NodeConfig{
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

// TestMultiProcessHungChildSendsNothing: a hang silences the child's own
// process, so a hung ses stops its telemetry and its commands to str and
// rtu, not only its replies. REC's decision delay outlasts the test, so
// the hung child stays up to be watched.
func TestMultiProcessHungChildSendsNothing(t *testing.T) {
	rec := core.DefaultRECParams()
	rec.DecisionDelay = time.Hour
	sup, err := startSupervisorWith(rt.NodeConfig{
		ListenAddr: "127.0.0.1:0",
		Scale:      mpScale,
		TreeName:   "IV",
		Seed:       1,
	}, assemble.Config{RECParams: &rec})
	if err != nil {
		t.Fatalf("StartSupervisor: %v", err)
	}
	t.Cleanup(sup.Stop)

	// Stand in for ops, the addressee of ses's telemetry.
	var frames atomic.Int64
	ops, err := bus.DialAuto(sup.BusAddr(), station.Ops, func(m *xmlcmd.Message) {
		if m.From == station.SES {
			frames.Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ops.Close()
	period := time.Duration(float64(station.TelemetryPeriod) / mpScale)
	for deadline := time.Now().Add(10 * time.Second); frames.Load() == 0; time.Sleep(period) {
		if time.Now().After(deadline) {
			t.Fatal("no telemetry from a serving ses")
		}
	}

	if err := sup.Inject(fault.Fault{Manifest: station.SES, Hang: true}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * period) // the hang command's hop, and frames already on the wire
	before := frames.Load()
	time.Sleep(10 * period)
	if n := frames.Load() - before; n > 0 {
		t.Fatalf("hung ses sent %d frames in %d telemetry periods", n, 10)
	}
	if pid := sup.ChildPID(station.SES); pid == 0 || syscall.Kill(pid, 0) != nil {
		t.Fatal("the hung child is gone; a hang must keep it up")
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

// TestMultiProcessBrokerOutage watches a few FD ping periods past the
// broker's ready mark: the children's bus clients redial on their own
// schedule, which the supervisor cannot see, so a cell they failed to
// rejoin would only be restarted after the station looked recovered.
func TestMultiProcessBrokerOutage(t *testing.T) {
	sup := startSupervisor(t, "IV")
	events := make(chan trace.Event, 256)
	sup.Log.Subscribe(func(e trace.Event) {
		switch e.Kind {
		case trace.ComponentReady, trace.RestartRequested, trace.ComponentKilled:
			select {
			case events <- e:
			default: // never block the dispatcher; the watch is over by then
			}
		}
	})
	if err := sup.Inject(fault.Fault{Manifest: station.MBus}); err != nil {
		t.Fatal(err)
	}
	watch := 5 * rt.FDParamsForScale(mpScale).PingPeriod / mpScale
	limit := time.After(30 * time.Second)
	var done <-chan time.Time // armed by component-ready mbus
watching:
	for {
		select {
		case e := <-events:
			switch {
			case e.Component != station.MBus && e.Kind != trace.ComponentReady:
				t.Fatalf("%v during a broker outage", e)
			case e.Component == station.MBus && e.Kind == trace.ComponentReady:
				done = time.After(watch)
			}
		case <-done:
			break watching
		case <-limit:
			t.Fatal("mbus not ready again in 30 s")
		}
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

// TestMultiProcessShardedBus boots the supervisor on a 2-shard fabric, the
// same config the in-process node takes: the children dial the shard list,
// an rtu kill is cured by replacing the child, and an mbus kill by closing
// and reopening both shards, after which every child is registered again.
func TestMultiProcessShardedBus(t *testing.T) {
	sup, err := StartSupervisor(rt.NodeConfig{ListenAddr: "127.0.0.1:0", Scale: mpScale, TreeName: "IV", Seed: 1, BusShards: 2})
	if err != nil {
		t.Fatalf("StartSupervisor: %v", err)
	}
	t.Cleanup(sup.Stop)
	if n := len(strings.Split(sup.BusAddr(), ",")); n != 2 {
		t.Fatalf("bus address %q lists %d shards, want 2", sup.BusAddr(), n)
	}
	oldPID := sup.ChildPID(station.RTU)
	for _, victim := range []string{station.RTU, station.MBus} {
		if err := sup.Inject(fault.Fault{Manifest: victim}); err != nil {
			t.Fatal(err)
		}
		if err := sup.WaitRecovered(30 * time.Second); err != nil {
			t.Fatalf("after a %s kill: %v", victim, err)
		}
	}
	if pid := sup.ChildPID(station.RTU); pid == 0 || pid == oldPID {
		t.Fatalf("rtu child not replaced: %d -> %d", oldPID, pid)
	}
	var restarts int
	sup.Disp.Call(func() { restarts, _ = sup.Mgr.Restarts(station.MBus) })
	if restarts == 0 {
		t.Fatal("the mbus kill was cured without restarting mbus")
	}
}

func TestUnknownTreeRejectedMP(t *testing.T) {
	if _, err := StartSupervisor(rt.NodeConfig{TreeName: "bogus", Scale: mpScale}); err == nil {
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
	// Any layout but the two would boot rtu against a front end that does
	// not exist.
	for _, layout := range []string{"", "Split", "micro"} {
		if err := RunChild(ChildConfig{Component: station.RTU, BusAddr: "x", Scale: 1, Layout: layout}); err == nil {
			t.Fatalf("layout %q accepted", layout)
		}
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
	recp := core.DefaultRECParams()
	recp.BudgetWindow = 30 * time.Minute
	sup, err := startSupervisorWith(rt.NodeConfig{
		ListenAddr: "127.0.0.1:0",
		Scale:      mpScale,
		TreeName:   "IV",
		Seed:       1,
	}, assemble.Config{Policy: cellOracle(), RECParams: &recp})
	if err != nil {
		t.Fatalf("StartSupervisor: %v", err)
	}
	t.Cleanup(sup.Stop)
	rec := tracetest.Record(sup.Log)
	if err := sup.Inject(fault.Fault{Manifest: station.RTU, Hard: true}); err != nil {
		t.Fatal(err)
	}
	gaveUp := func() bool {
		return len(rec.Filter(func(e trace.Event) bool { return e.Kind == trace.GiveUp })) > 0
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

// TestMultiProcessKillDuringSpawn kills a component in the same dispatcher
// turn that restarted it, before the new child process exists. The spawn
// that lands afterwards belongs to a dead incarnation and must kill itself:
// the supervisor may never report a live child for a dead component, and
// once the station has recovered the component runs exactly one child.
func TestMultiProcessKillDuringSpawn(t *testing.T) {
	sup := startSupervisor(t, "IV")
	sup.Disp.Call(func() {
		if err := sup.Mgr.Restart([]string{station.RTU}); err != nil {
			t.Error(err)
		}
		if err := sup.Mgr.Kill(station.RTU, "killed during spawn"); err != nil {
			t.Error(err)
		}
	})
	for i := 0; i < 200; i++ {
		var st proc.State
		var pid int
		sup.Disp.Call(func() {
			st, _ = sup.Mgr.State(station.RTU)
			pid = sup.ChildPID(station.RTU)
		})
		if st != proc.Dead {
			break // REC has restarted it
		}
		if pid != 0 && syscall.Kill(pid, 0) == nil {
			t.Fatalf("poll %d: rtu is dead but its child %d is alive", i, pid)
		}
		time.Sleep(time.Millisecond)
	}
	if err := sup.WaitRecovered(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if pids := liveChildren(t, station.RTU); len(pids) != 1 || pids[0] != sup.ChildPID(station.RTU) {
		t.Fatalf("live rtu children %v, want only the current one %d", pids, sup.ChildPID(station.RTU))
	}
}

// liveChildren lists this process's children, zombies excluded, that run
// the named component, read from /proc.
func liveChildren(t *testing.T, component string) []int {
	t.Helper()
	dirs, err := os.ReadDir("/proc")
	if err != nil {
		t.Skip("no /proc:", err)
	}
	var pids []int
	for _, d := range dirs {
		pid, err := strconv.Atoi(d.Name())
		if err != nil {
			continue
		}
		state, ppid, ok := procStat(pid)
		if !ok || ppid != os.Getpid() || state == "Z" {
			continue
		}
		env, _ := os.ReadFile(fmt.Sprintf("/proc/%d/environ", pid))
		for _, kv := range bytes.Split(env, []byte{0}) {
			if string(kv) == EnvComponent+"="+component {
				pids = append(pids, pid)
			}
		}
	}
	return pids
}

// procStat reads a process's state letter and parent pid from /proc; ok is
// false if there is no such process.
func procStat(pid int) (state string, ppid int, ok bool) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return "", 0, false
	}
	// After "(comm)": state, then ppid.
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	_, err = fmt.Sscan(string(rest), &state, &ppid)
	return state, ppid, err == nil
}
