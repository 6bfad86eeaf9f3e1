package mp

import (
	"bufio"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/bus"
	"github.com/recursive-restart/mercury/internal/rt"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// TestSupervisorKillLeavesNoOrphans SIGKILLs a supervisor running in a
// re-executed test binary. Its children must die with it: within 2 s no
// old child is alive (a zombie awaiting its reaper counts as dead). A
// second supervisor then boots on the same address and, for 5 ping
// periods, registers each of its clients once and restarts nothing: no
// stale incarnation fights a new one for its bus name.
func TestSupervisorKillLeavesNoOrphans(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), envSupervisor+"="+addr)
	cmd.Stderr = os.Stderr
	// The first supervisor dies with the test, whatever the test finds.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})

	booted := make(chan []int, 1)
	go func() {
		var pids []int
		for sc := bufio.NewScanner(stdout); sc.Scan(); {
			if pid, ok := strings.CutPrefix(sc.Text(), "child "); ok {
				if n, err := strconv.Atoi(pid); err == nil {
					pids = append(pids, n)
				}
			} else if sc.Text() == "booted" {
				booted <- pids
				return
			}
		}
		close(booted)
	}()
	var old []int
	select {
	case old = <-booted:
	case <-time.After(60 * time.Second):
		t.Fatal("the first supervisor did not boot in 60 s")
	}
	if len(old) == 0 {
		t.Fatal("the first supervisor reported no child processes")
	}

	killed := time.Now()
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()
	alive := func() (left []int) {
		for _, pid := range old {
			if state, _, ok := procStat(pid); ok && state != "Z" {
				left = append(left, pid)
			}
		}
		return left
	}
	for deadline := time.Now().Add(2 * time.Second); len(alive()) > 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			left := alive()
			for _, pid := range left {
				_ = syscall.Kill(pid, syscall.SIGKILL)
			}
			t.Fatalf("children %v of %v still alive 2 s after their supervisor's SIGKILL", left, old)
		}
	}
	t.Logf("%d old children dead %v after their supervisor's SIGKILL", len(old), time.Since(killed))

	before := bus.M.TCPRegistrations.Value()
	sup, err := StartSupervisor(rt.NodeConfig{ListenAddr: addr, Scale: mpScale, TreeName: "IV", Seed: 1})
	if err != nil {
		t.Fatalf("second supervisor on %s: %v", addr, err)
	}
	t.Cleanup(sup.Stop)
	time.Sleep(5 * rt.FDParamsForScale(mpScale).PingPeriod / mpScale)

	// One registration per child, plus the supervisor's own clients: fd,
	// mbus and ctlName.
	want := uint64(len(sup.Components()) - 1 + 3)
	if got := bus.M.TCPRegistrations.Value() - before; got != want {
		t.Errorf("the second supervisor's broker took %d registrations, want %d", got, want)
	}
	for _, comp := range append(sup.Components(), xmlcmd.AddrFD, xmlcmd.AddrREC) {
		var n int
		sup.Disp.Call(func() { n, _ = sup.Mgr.Restarts(comp) })
		if n != 0 {
			t.Errorf("%s restarted %d times on a fault-free boot", comp, n)
		}
	}
}
