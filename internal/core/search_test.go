package core

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"bluefi/internal/bt"
	"bluefi/internal/btrx"
	"bluefi/internal/gfsk"
	"bluefi/internal/obs"
)

// candidatesScored reads how many search candidates a registry saw.
func candidatesScored(reg *obs.Registry) int64 {
	for _, fam := range reg.Snapshot().Families {
		if fam.Name == "bluefi_core_rehearsal_candidates_total" {
			return fam.Metrics[0].Value
		}
	}
	return 0
}

// The parallel rehearsal search must be bit-identical to the serial one:
// same PSDU, same rehearsal verdict, same plan. Candidates are evaluated
// concurrently but selected in candidate order, so nothing about worker
// scheduling may leak into the result. With more than one CPU the
// parallel side must really have run candidates side by side — an
// idle-CPU check that never grants a helper would otherwise reduce the
// test to serial against serial. The "-fec" cases pass the
// packet's FEC layout, which stops the search at the first candidate
// the FEC decodes — earlier than the layout-free rule would. The
// "-lead2" case decodes only in the last lead group, so its workers
// share the CP phase error of all three groups.
func TestParallelSearchMatchesSerial(t *testing.T) {
	cases := []struct {
		name string
		mode Mode
		fec  bool
		bt   *bt.Packet
		mhz  float64
	}{
		{"quality-dm1", Quality, false, &bt.Packet{Type: bt.DM1, LTAddr: 1, Payload: []byte("par-search-01")}, 2426},
		{"realtime-dm1", RealTime, false, &bt.Packet{Type: bt.DM1, LTAddr: 1, SEQN: 1, Payload: []byte("par-search-02")}, 2426},
		{"realtime-dm1-fec", RealTime, true, &bt.Packet{Type: bt.DM1, LTAddr: 1, SEQN: 1, Payload: []byte("par-search-02")}, 2426},
		{"realtime-dm1-fec-lead2", RealTime, true, &bt.Packet{Type: bt.DM1, LTAddr: 1, Payload: []byte("par-search-06"), Clock: 88}, 2426},
		{"quality-dm1-fec", Quality, true, &bt.Packet{Type: bt.DM1, LTAddr: 3, Payload: []byte("par-search-04"), Clock: 8}, 2426},
		{"realtime-dh1-ch20", RealTime, false, &bt.Packet{Type: bt.DH1, LTAddr: 2, Payload: []byte("par-search-03"), Clock: 4}, 2424},
		{"quality-dm1-ch24", Quality, false, &bt.Packet{Type: bt.DM1, LTAddr: 3, Payload: []byte("par-search-04"), Clock: 8}, 2428},
		{"realtime-dm1-fec-ch16", RealTime, true, &bt.Packet{Type: bt.DM1, LTAddr: 1, Payload: []byte("par-search-05"), Clock: 12}, 2418},
	}
	if testing.Short() {
		cases = cases[:4]
	}
	dev := bt.Device{LAP: 0x123456, UAP: 0x9A}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			air, err := tc.bt.AirBits(dev)
			if err != nil {
				t.Fatal(err)
			}
			mk := func(par int, layout bt.FECLayout) (*Result, int64, *Synthesizer) {
				opts := DefaultOptions()
				opts.Mode = tc.mode
				opts.GFSK = gfsk.BRConfig()
				opts.SearchParallelism = par
				opts.Telemetry = obs.NewRegistry()
				s, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.SynthesizeFEC(air, tc.mhz, layout)
				if err != nil {
					t.Fatal(err)
				}
				return res, candidatesScored(opts.Telemetry), s
			}
			var layout bt.FECLayout
			if tc.fec {
				layout = tc.bt.FECLayout(btrx.SyncErrorBudget)
			}
			serial, serialScored, _ := mk(1, layout)
			parallel, _, ps := mk(4, layout)
			if runtime.GOMAXPROCS(0) >= 2 && ps.searchPeak < 2 {
				t.Errorf("parallel search ran at most %d candidate at once on %d CPUs", ps.searchPeak, runtime.GOMAXPROCS(0))
			}
			if !bytes.Equal(serial.PSDU, parallel.PSDU) {
				t.Errorf("parallel search PSDU differs from serial (%d vs %d bytes)", len(parallel.PSDU), len(serial.PSDU))
			}
			if serial.RehearsalMismatches != parallel.RehearsalMismatches {
				t.Errorf("RehearsalMismatches: serial %d, parallel %d", serial.RehearsalMismatches, parallel.RehearsalMismatches)
			}
			if serial.RehearsalDecodes != parallel.RehearsalDecodes {
				t.Errorf("RehearsalDecodes: serial %v, parallel %v", serial.RehearsalDecodes, parallel.RehearsalDecodes)
			}
			if serial.Symbols != parallel.Symbols {
				t.Errorf("Symbols: serial %d, parallel %d", serial.Symbols, parallel.Symbols)
			}
			if serial.Plan != parallel.Plan {
				t.Errorf("Plan: serial %+v, parallel %+v", serial.Plan, parallel.Plan)
			}
			if serial.PhaseRMSE != parallel.PhaseRMSE {
				t.Errorf("PhaseRMSE: serial %g, parallel %g", serial.PhaseRMSE, parallel.PhaseRMSE)
			}
			if !tc.fec {
				return
			}
			if !serial.RehearsalDecodes || serial.RehearsalMismatches == 0 {
				t.Errorf("FEC search chose a candidate with %d mismatches, decodes %v; want a decodable one the FEC must correct",
					serial.RehearsalMismatches, serial.RehearsalDecodes)
			}
			if strings.HasSuffix(tc.name, "-lead2") && serialScored <= int64(2*len(searchRotations)) {
				t.Errorf("serial search stopped after %d candidates, before lead group 2", serialScored)
			}
			if _, plainScored, _ := mk(1, nil); serialScored >= plainScored {
				t.Errorf("FEC search scored %d candidates, the layout-free search %d: no early stop", serialScored, plainScored)
			}
		})
	}
}

// A synthesizer keeps its parallel search across packets: worker clones
// and their caches must not leak state from one packet into the next.
// Synthesizing the same packet twice (around a different packet) must
// reproduce the first result exactly.
func TestParallelSearchStatelessAcrossPackets(t *testing.T) {
	opts := DefaultOptions()
	opts.Mode = RealTime
	opts.GFSK = gfsk.BRConfig()
	opts.SearchParallelism = 4
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	dev := bt.Device{LAP: 0x123456, UAP: 0x9A}
	pktA := &bt.Packet{Type: bt.DM1, LTAddr: 1, Payload: []byte("stateless-a")}
	pktB := &bt.Packet{Type: bt.DM1, LTAddr: 1, SEQN: 1, Payload: []byte("stateless-b")}
	airA, err := pktA.AirBits(dev)
	if err != nil {
		t.Fatal(err)
	}
	airB, err := pktB.AirBits(dev)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Synthesize(airA, 2426)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Synthesize(airB, 2426); err != nil {
		t.Fatal(err)
	}
	again, err := s.Synthesize(airA, 2426)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.PSDU, again.PSDU) {
		t.Error("same packet synthesized twice produced different PSDUs")
	}
	if first.RehearsalMismatches != again.RehearsalMismatches {
		t.Errorf("RehearsalMismatches drifted: %d then %d", first.RehearsalMismatches, again.RehearsalMismatches)
	}
}

// A candidate failing mid-search fails the synthesis with its error,
// and the search still waits for every candidate it started: no helper
// slot stays held, and the synthesizer and its clones synthesize the
// next packet exactly as a fresh one does.
func TestSearchCandidateErrorReleasesSlots(t *testing.T) {
	dev := bt.Device{LAP: 0x123456, UAP: 0x9A}
	pkt := &bt.Packet{Type: bt.DM1, LTAddr: 1, Payload: []byte("par-search-06"), Clock: 88}
	air, err := pkt.AirBits(dev)
	if err != nil {
		t.Fatal(err)
	}
	layout := pkt.FECLayout(btrx.SyncErrorBudget)
	injected := errors.New("injected candidate failure")
	for _, par := range []int{1, 4} {
		opts := DefaultOptions()
		opts.Mode = RealTime
		opts.GFSK = gfsk.BRConfig()
		opts.SearchParallelism = par
		s, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		candidateFault = func(k int) error {
			if k == 2 {
				return injected
			}
			return nil
		}
		_, err = s.SynthesizeFEC(air, 2426, layout)
		candidateFault = nil
		if !errors.Is(err, injected) {
			t.Errorf("parallelism %d: search returned %v, want the injected failure", par, err)
		}
		if held := busySlots.Load(); held != 0 {
			t.Errorf("parallelism %d: %d slots held after the failed search", par, held)
		}
		got, err := s.SynthesizeFEC(air, 2426, layout)
		if err != nil {
			t.Fatal(err)
		}
		if held := busySlots.Load(); held != 0 {
			t.Errorf("parallelism %d: %d slots held after the search", par, held)
		}
		fresh, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.SynthesizeFEC(air, 2426, layout)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.PSDU, want.PSDU) || got.RehearsalMismatches != want.RehearsalMismatches {
			t.Errorf("parallelism %d: the search after a failure differs from a fresh synthesizer's", par)
		}
	}
}
