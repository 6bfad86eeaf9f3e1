//go:build !linux

package mp

import "os/exec"

// dieWithParent is a no-op where the kernel has no parent-death signal: a
// child outlives a supervisor that dies without killing it.
func dieWithParent(*exec.Cmd) {}
