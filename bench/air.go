package main

import (
	"fmt"
	"sync"

	"bluefi/internal/bt"
	"bluefi/internal/channel"
	"bluefi/internal/chip"
	"bluefi/internal/scan"
)

// The receive side every served PSDU goes through: the chip model turns
// the PSDU into the IQ an unmodified WiFi card would emit, the channel
// model carries it over an office link, and the scanner decodes it the
// way an unmodified Bluetooth receiver would.

// Link geometry: the AR9331's stock power (the chip the synthesizers
// target by default) over 1.5 m, the paper's bench distance.
const (
	linkTxPowerDBm = 18
	linkDistanceM  = 1.5
)

// capture describes where a PSDU's Bluetooth packet sits on the air.
type capture struct {
	kind     scan.Kind
	channel  int     // BLE advertising channel or BR channel index
	offsetHz float64 // carrier offset from the WiFi channel center
	clk      uint32  // BR whitening clock
	dev      bt.Device
}

// airCounts are scanner verdicts over a run.
type airCounts struct {
	captures, detected, crc int
	// cleanUndecoded counts packets synthesis rehearsed clean that the
	// scanner still failed; a clean link must decode them (DESIGN.md §10).
	cleanUndecoded int
}

// airStats accumulates airCounts; safe for concurrent use.
type airStats struct {
	mu sync.Mutex
	c  airCounts // guarded by mu
}

func (a *airStats) note(out scan.Outcome, rehearsalMismatches int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.c.captures++
	if out.Detected {
		a.c.detected++
	}
	if out.CRCError {
		a.c.crc++
	}
	if !out.Decoded && rehearsalMismatches == 0 {
		a.c.cleanUndecoded++
	}
}

func (a *airStats) counts() airCounts {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.c
}

// receive transmits psdu at mcs through the chip, channel and scanner
// models, recording one span per layer under parent. seed drives the
// channel noise and the scanner front end.
func receive(tr *tracer, root, parent int64, stats *airStats, psdu []byte, mcs, mismatches int, c capture, seed int64) (scan.Outcome, error) {
	t0 := now()
	iq, err := chip.New(chip.AR9331).Transmit(psdu, mcs)
	t1 := now()
	tr.record("chip.Transmit", root, parent, t0, t1)
	if err != nil {
		return scan.Outcome{}, fmt.Errorf("chip.Transmit: %w", err)
	}
	link := channel.Default(linkTxPowerDBm, linkDistanceM)
	link.Seed = seed
	rx, err := link.Apply(iq)
	t2 := now()
	tr.record("channel.Apply", root, parent, t1, t2)
	if err != nil {
		return scan.Outcome{}, fmt.Errorf("channel.Apply: %w", err)
	}
	sc := scan.NewScanner(scan.Config{Seed: seed, Device: c.dev})
	out := sc.Ingest(scan.Capture{Kind: c.kind, Channel: c.channel, OffsetHz: c.offsetHz, IQ: rx, Clk: c.clk})
	tr.record("scan.Ingest", root, parent, t2, now())
	if out.Err != nil {
		return out, fmt.Errorf("scan.Ingest: %w", out.Err)
	}
	stats.note(out, mismatches)
	return out, nil
}
