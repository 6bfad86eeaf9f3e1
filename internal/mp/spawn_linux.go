package mp

import (
	"os/exec"
	"syscall"
)

// dieWithParent has the kernel SIGKILL the child when the thread that
// spawned it exits, so a supervisor that dies, even by SIGKILL, leaves no
// child behind to fight its successor's children for their bus names.
// Nothing in this process locks an OS thread, so the Go runtime never
// retires the spawning thread while the supervisor lives.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
