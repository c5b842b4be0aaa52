// Package leaktest checks that a test leaves no goroutine behind. The
// race detector finds neither deadlocks nor leaked goroutines; a test
// that counts goroutines before it starts work and again after it has
// stopped everything it started finds the leak.
package leaktest

import (
	"runtime"
	"testing"
	"time"
)

// Check records the live goroutine count and returns the check to call
// once the test has stopped what it started. The check waits about
// five seconds, in 10 ms sleeps, for the count to fall back to the
// recorded one (abandoned pool attempts and respawned workers need a
// moment to unwind) and fails t if it does not.
func Check(t testing.TB) func() {
	baseline := runtime.NumGoroutine()
	return func() {
		t.Helper()
		for wait := 0; runtime.NumGoroutine() > baseline; wait++ {
			if wait == 500 {
				t.Fatalf("goroutine leak: %d live, baseline %d", runtime.NumGoroutine(), baseline)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}
