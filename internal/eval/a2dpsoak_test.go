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
	t.Logf("\n%s", FormatA2DPSoak(r))
	// The CLI's gates, with the knee one worker sustains.
	if err := r.Check(2); err != nil {
		t.Fatal(err)
	}
	// Structure the gates take for granted: one ramp point per admitted
	// level, the refused candidate extending the curve, and one measured
	// outcome per admitted session, each of which synthesized segments.
	if r.Knee < 1 || len(r.Ramp) != r.Knee {
		t.Fatalf("knee %d with %d ramp points", r.Knee, len(r.Ramp))
	}
	for i, pt := range r.Ramp {
		if pt.Sessions != i+1 {
			t.Fatalf("ramp[%d] projects %d sessions", i, pt.Sessions)
		}
	}
	if last := r.Ramp[len(r.Ramp)-1]; r.Rejected.Utilization <= last.Utilization {
		t.Fatalf("rejected projection %+v does not extend the curve past %+v", r.Rejected, last)
	}
	if len(r.Measured) != r.Knee {
		t.Fatalf("%d measured sessions, knee %d", len(r.Measured), r.Knee)
	}
	for _, m := range r.Measured {
		if m.Segments == 0 {
			t.Fatalf("session %s synthesized no segments", m.ID)
		}
	}
	if r.Storm.Sessions < 1 || r.Storm.Rounds < 1 {
		t.Fatalf("storm did not run: %+v", r.Storm)
	}
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
