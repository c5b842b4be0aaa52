package eval

import (
	"testing"

	"bluefi/internal/leaktest"
)

// The parallel Fig. 9 sweep must reproduce the serial sweep exactly:
// every per-packet outcome is a pure function of (channel, index, seed).
// Its workers must all have exited when it returns.
func TestFig9ParallelMatchesSerial(t *testing.T) {
	cfg := DefaultFig9()
	cfg.PacketsPerChannel = 2
	serial, err := Fig9SingleSlotPER(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 4
	noLeak := leaktest.Check(t)
	parallel, err := Fig9SingleSlotPER(cfg)
	if err != nil {
		t.Fatal(err)
	}
	noLeak()
	if len(serial) != len(parallel) {
		t.Fatalf("%d channels serial, %d parallel", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("channel %d: serial %+v, parallel %+v", serial[i].BTChannel, serial[i], parallel[i])
		}
	}
}
