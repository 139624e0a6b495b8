//go:build !linux

package lazydfa_test

import "time"

var clockStart = time.Now()

// threadCPU falls back to the wall clock where no per-thread CPU clock is
// wired up, so descheduled time counts there.
func threadCPU() time.Duration { return time.Since(clockStart) }
