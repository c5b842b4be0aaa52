package eval

import (
	"reflect"
	"testing"

	"bluefi"
)

// smallA2DPSoak is a CI-speed configuration: one worker pushes the
// capacity knee down to a couple of sessions, so the full ramp, the
// measured phase and the storm stay under a few seconds of synthesis.
func smallA2DPSoak(flightDir string) A2DPSoakConfig {
	return A2DPSoakConfig{
		Workers:           1,
		MaxSessions:       8,
		PacketsPerSession: 2,
		ServiceSlots:      0.4,
		GlobalShipFloor:   0.8,
		StormSessions:     2,
		StormRounds:       10,
		Seed:              5,
		FlightDir:         flightDir,
		Mode:              bluefi.RealTime,
	}
}

func TestA2DPSoakSmoke(t *testing.T) {
	r, err := A2DPSoak(smallA2DPSoak(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Knee < 1 || len(r.Ramp) != r.Knee {
		t.Fatalf("knee %d with %d ramp points", r.Knee, len(r.Ramp))
	}
	// The capacity curve is monotone: every admitted session raises the
	// projected utilization, and the refused candidate's projection must
	// be the worst of all.
	for i, pt := range r.Ramp {
		if pt.Sessions != i+1 {
			t.Fatalf("ramp[%d] projects %d sessions", i, pt.Sessions)
		}
		if i > 0 && pt.Utilization <= r.Ramp[i-1].Utilization {
			t.Fatalf("utilization not increasing at level %d: %.4f after %.4f",
				i+1, pt.Utilization, r.Ramp[i-1].Utilization)
		}
		if pt.MissRatio > 0.05 {
			t.Fatalf("admitted level %d carries projected miss ratio %.4f", i+1, pt.MissRatio)
		}
	}
	last := r.Ramp[len(r.Ramp)-1]
	if r.Rejected.Sessions != r.Knee+1 || r.Rejected.Utilization <= last.Utilization {
		t.Fatalf("rejected projection %+v does not extend the curve past %+v", r.Rejected, last)
	}
	if r.Rejected.MissRatio <= 0.05 {
		t.Fatalf("refused candidate projects miss ratio %.4f — inside the budget", r.Rejected.MissRatio)
	}
	// Below the knee every session ships everything on the clean pool.
	if len(r.Measured) != r.Knee {
		t.Fatalf("%d measured sessions, knee %d", len(r.Measured), r.Knee)
	}
	for _, m := range r.Measured {
		if m.ShippedRatio < r.GlobalShipFloor {
			t.Fatalf("session %s shipped %.2f below the floor on a clean pool", m.ID, m.ShippedRatio)
		}
		if m.Segments == 0 {
			t.Fatalf("session %s synthesized no segments", m.ID)
		}
	}
	// The ramp's flight bundle carries the admission trail.
	if r.RampBundle == "" || r.AdmitEvents != r.Knee || r.RejectEvents < 1 {
		t.Fatalf("flight bundle %q: %d admit / %d reject events, want %d / ≥1",
			r.RampBundle, r.AdmitEvents, r.RejectEvents, r.Knee)
	}
	// Storm: the budget keeps the fleet shipping.
	if r.Storm.Sessions < 1 || r.Storm.Rounds < 1 {
		t.Fatalf("storm did not run: %+v", r.Storm)
	}
	if r.Storm.ShippedRatio < 0.5 {
		t.Fatalf("storm fleet shipped %.2f — coordination collapsed", r.Storm.ShippedRatio)
	}
	t.Logf("\n%s", FormatA2DPSoak(r))
}

// TestA2DPSoakDeterministicCurve: the projected capacity curve is a
// pure function of the config — two runs agree exactly (the measured
// and storm phases touch the wall clock and are excluded).
func TestA2DPSoakDeterministicCurve(t *testing.T) {
	cfg := smallA2DPSoak("")
	cfg.ProjectionOnly = true
	a, err := A2DPSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := A2DPSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Knee != b.Knee {
		t.Fatalf("knees differ: %d vs %d", a.Knee, b.Knee)
	}
	if !reflect.DeepEqual(a.Ramp, b.Ramp) || !reflect.DeepEqual(a.Rejected, b.Rejected) {
		t.Fatalf("capacity curves differ:\n%+v\n%+v", a.Ramp, b.Ramp)
	}
}
