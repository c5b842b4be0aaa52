// Package a2dp is the obsnames fixture for the multi-session metric
// families: the admission controller's bluefi_a2dp_admission_* and the
// session plane's bluefi_a2dp_session_* names, mirroring the real
// SessionManager and ShedBudget registrations. Conforming names stay
// silent; subsystem drift, kind/unit-suffix mismatches and dynamic
// session labels diagnose.
package a2dp

import (
	"bluefi/internal/obs"
)

// conformingAdmission mirrors the SessionManager's admission counters
// and gauge — no diagnostics expected.
func conformingAdmission(r *obs.Registry) {
	r.Counter("bluefi_a2dp_admission_admitted_total", "sessions admitted")
	r.Counter("bluefi_a2dp_admission_rejected_total", "sessions refused by the projection")
	r.Counter("bluefi_a2dp_admission_evicted_total", "sessions evicted")
	r.Gauge("bluefi_a2dp_admission_miss_permille", "last projected deadline-miss ratio, per mille")
}

// conformingSession mirrors the session plane's gauge and the shedding
// budget's counters — no diagnostics expected.
func conformingSession(r *obs.Registry) {
	r.Gauge("bluefi_a2dp_session_active", "live sessions")
	r.Counter("bluefi_a2dp_session_shed_grants_total", "drop requests granted")
	r.Counter("bluefi_a2dp_session_shed_denials_total", "drop requests denied", obs.L("reason", "budget"))
}

func badNames(r *obs.Registry, id string) {
	r.Counter("bluefi_session_admitted_total", "wrong subsystem")                                                        // want `metric name "bluefi_session_admitted_total" registered in internal/a2dp must use subsystem segment "a2dp", not "session"`
	r.Counter("bluefi_a2dp_admitted-sessions_total", "bad charset")                                                      // want `metric name "bluefi_a2dp_admitted-sessions_total" does not match bluefi_<subsystem>_<noun>\[_<unit>\]`
	r.Counter("bluefi_a2dp_session_shed_grants_total", "per-session series", obs.L("session", id), obs.L("weight", "2")) // ok: label values may be dynamic
}

func badKinds(r *obs.Registry) {
	r.Counter("bluefi_a2dp_session_dropped", "no _total")            // want `counter "bluefi_a2dp_session_dropped" must end in _total`
	r.Gauge("bluefi_a2dp_admission_rejected_total", "gauge-counter") // want `gauge "bluefi_a2dp_admission_rejected_total" must not end in _total`
	r.Histogram("bluefi_a2dp_session_slack", "no unit", nil)         // want `histogram "bluefi_a2dp_session_slack" must end in a unit suffix`
}

func badLabels(r *obs.Registry, key string) {
	r.Counter("bluefi_a2dp_session_shed_grants_total", "dynamic key", obs.L(key, "v")) // want `label key must be a compile-time constant`
}
