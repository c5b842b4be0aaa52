package core

import (
	"bytes"
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
// scheduling may leak into the result. The "-fec" cases pass the
// packet's FEC layout, which stops the search at the first candidate
// the FEC decodes — earlier than the layout-free rule would.
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
		{"quality-dm1-fec", Quality, true, &bt.Packet{Type: bt.DM1, LTAddr: 3, Payload: []byte("par-search-04"), Clock: 8}, 2426},
		{"realtime-dh1-ch20", RealTime, false, &bt.Packet{Type: bt.DH1, LTAddr: 2, Payload: []byte("par-search-03"), Clock: 4}, 2424},
		{"quality-dm1-ch24", Quality, false, &bt.Packet{Type: bt.DM1, LTAddr: 3, Payload: []byte("par-search-04"), Clock: 8}, 2428},
		{"realtime-dm1-fec-ch16", RealTime, true, &bt.Packet{Type: bt.DM1, LTAddr: 1, Payload: []byte("par-search-05"), Clock: 12}, 2418},
	}
	if testing.Short() {
		cases = cases[:3]
	}
	dev := bt.Device{LAP: 0x123456, UAP: 0x9A}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			air, err := tc.bt.AirBits(dev)
			if err != nil {
				t.Fatal(err)
			}
			mk := func(par int, layout bt.FECLayout) (*Result, int64) {
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
				return res, candidatesScored(opts.Telemetry)
			}
			var layout bt.FECLayout
			if tc.fec {
				layout = tc.bt.FECLayout(btrx.SyncErrorBudget)
			}
			serial, serialScored := mk(1, layout)
			parallel, _ := mk(4, layout)
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
			if _, plainScored := mk(1, nil); serialScored >= plainScored {
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
