package main

// A2DP capacity soak (-a2dp-soak): ramp concurrent sessions over one
// shared pool until the admission controller refuses, check the
// projected capacity curve against measured delivery below the knee,
// and run the fault storm with the multi-session SLOs in the loop. The
// gates:
//
//   - the knee exists and admits at least -a2dp-min-sessions;
//   - the capacity curve is monotone and every admitted level projects
//     a miss ratio inside the admission budget;
//   - every admitted session actually ships ≥ the global floor on the
//     clean pool, with zero deadline misses;
//   - the ramp dumps a flight bundle carrying the admit/reject trail;
//   - through the storm, at least -a2dp-min-sessions sessions are still
//     shipping at or above the floor when the first SLO page fires (or
//     at storm end when none does).
//
// The result lands in BENCH_eval.json under "a2dpCapacity";
// `make a2dp-soak` runs this in CI.

import (
	"fmt"

	"bluefi/internal/eval"
)

// runA2DPSoak runs the soak, enforces the CI gates and merges the
// capacity snapshot into the benchmark JSON.
func runA2DPSoak(path, flightDir string, minSessions int) error {
	cfg := eval.DefaultA2DPSoak()
	cfg.FlightDir = flightDir
	fmt.Printf("a2dp soak: %d workers, %.2f service slots/segment, up to %d sessions\n",
		cfg.Workers, cfg.ServiceSlots, cfg.MaxSessions)
	res, err := eval.A2DPSoak(cfg)
	if err != nil {
		return err
	}
	fmt.Print(eval.FormatA2DPSoak(res))

	if res.Knee < minSessions {
		return fmt.Errorf("capacity knee at %d sessions, want ≥ %d", res.Knee, minSessions)
	}
	for i, pt := range res.Ramp {
		if i > 0 && pt.Utilization <= res.Ramp[i-1].Utilization {
			return fmt.Errorf("capacity curve not monotone at level %d (%.4f after %.4f)",
				pt.Sessions, pt.Utilization, res.Ramp[i-1].Utilization)
		}
		if pt.MissRatio > 0.05 {
			return fmt.Errorf("admitted level %d projects miss ratio %.4f over the 0.05 budget",
				pt.Sessions, pt.MissRatio)
		}
	}
	if res.Rejected.Sessions != res.Knee+1 || res.Rejected.MissRatio <= 0.05 {
		return fmt.Errorf("refused candidate's projection %+v does not justify rejection", res.Rejected)
	}
	for _, m := range res.Measured {
		if m.ShippedRatio < res.GlobalShipFloor {
			return fmt.Errorf("session %s shipped %.3f below the %.2f floor on the clean pool",
				m.ID, m.ShippedRatio, res.GlobalShipFloor)
		}
		if m.DeadlineMisses > 0 {
			return fmt.Errorf("session %s missed %d deadlines below the knee", m.ID, m.DeadlineMisses)
		}
	}
	if res.RampBundle == "" || res.AdmitEvents != res.Knee || res.RejectEvents < 1 {
		return fmt.Errorf("ramp flight bundle %q carries %d admit / %d reject events, want %d / ≥1",
			res.RampBundle, res.AdmitEvents, res.RejectEvents, res.Knee)
	}
	st := res.Storm
	atFloorGate := minSessions
	if st.Sessions < atFloorGate {
		atFloorGate = st.Sessions
	}
	if st.SessionsAtFloor < atFloorGate {
		return fmt.Errorf("only %d/%d storm sessions at the %.2f floor (first page round %d), want ≥ %d",
			st.SessionsAtFloor, st.Sessions, res.GlobalShipFloor, st.FirstPageRound, atFloorGate)
	}
	if st.ShippedRatio < 0.75 {
		return fmt.Errorf("storm fleet shipped %.3f, want ≥ 0.75", st.ShippedRatio)
	}
	return mergeBench(path, "a2dpCapacity", res, false)
}
