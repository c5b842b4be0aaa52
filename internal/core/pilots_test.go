package core

import (
	"bytes"
	"math"
	"runtime"
	"sync"
	"testing"

	"bluefi/internal/bt"
	"bluefi/internal/gfsk"
)

// pilotTestPacket is one synthesis request of the pilot-cache tests.
type pilotTestPacket struct {
	air []byte
	mhz float64
}

// pilotTestPackets spans three pilot shapes per lead group: a beacon
// and a DM1 packet (different lengths) at +4 MHz, and the DM1 packet
// again at −4 MHz.
func pilotTestPackets(t *testing.T) []pilotTestPacket {
	t.Helper()
	dm1 := &bt.Packet{Type: bt.DM1, LTAddr: 1, Payload: []byte("pilot-cache")}
	air, err := dm1.AirBits(bt.Device{LAP: 0x123456, UAP: 0x9A})
	if err != nil {
		t.Fatal(err)
	}
	return []pilotTestPacket{{beaconAirBits(t, 38), 2426}, {air, 2426}, {air, 2418}}
}

// newPilotTestSynth builds a real-time synthesizer on pilot cache c.
func newPilotTestSynth(t *testing.T, c *pilotCache) *Synthesizer {
	t.Helper()
	opts := DefaultOptions()
	opts.Mode = RealTime
	opts.GFSK = gfsk.BRConfig()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.pilots = c
	return s
}

// resident reports c's cached bytes.
func resident(c *pilotCache) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// sameWave reports whether two waveforms are identical bit for bit.
func sameWave(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// TestSharedPilotCacheConcurrent runs GOMAXPROCS+1 synthesizers over the
// same packets on one pilot cache that holds only the largest
// prediction, so entries are evicted and rebuilt while other
// synthesizers and their search workers read them. Every PSDU and
// waveform must match a serial run byte for byte, the resident bytes
// must never exceed the bound, and a rebuilt entry must equal the
// evicted one.
func TestSharedPilotCacheConcurrent(t *testing.T) {
	pkts := pilotTestPackets(t)
	full := newPilotCache(pilotCacheBytes)
	serial := newPilotTestSynth(t, full)
	want := make([]*Result, len(pkts))
	for i, p := range pkts {
		res, err := serial.Synthesize(p.air, p.mhz)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	var keys []pilotKey
	var largest int64
	for el := full.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*pilotEntry)
		keys = append(keys, e.key)
		largest = max(largest, e.sizeBytes())
	}
	if len(keys) < 3 {
		t.Fatalf("serial run cached %d pilot shapes, want at least 3", len(keys))
	}

	t.Logf("%d pilot shapes, largest %d bytes", len(keys), largest)
	small := newPilotCache(largest)
	synths := runtime.GOMAXPROCS(0) + 1
	got := make([][]*Result, synths)
	var wg sync.WaitGroup
	for w := range got {
		s := newPilotTestSynth(t, small)
		got[w] = make([]*Result, len(pkts))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range pkts {
				i := (w + j) % len(pkts) // vary the interleaving per synthesizer
				res, err := s.Synthesize(pkts[i].air, pkts[i].mhz)
				if err != nil {
					t.Errorf("synthesizer %d, packet %d: %v", w, i, err)
					return
				}
				got[w][i] = res
			}
		}(w)
	}
	done := make(chan struct{})
	var peak int64
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			peak = max(peak, resident(small))
			select {
			case <-done:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	wg.Wait()
	close(done)
	<-polled
	if peak > small.max || resident(small) > small.max {
		t.Errorf("resident pilot bytes peaked at %d (now %d), bound %d", peak, resident(small), small.max)
	}
	for w, rs := range got {
		for i, res := range rs {
			if res == nil {
				continue // reported above
			}
			if !bytes.Equal(res.PSDU, want[i].PSDU) || !sameWave(res.Waveform, want[i].Waveform) {
				t.Errorf("synthesizer %d, packet %d: output differs from the serial run", w, i)
			}
		}
	}

	// Evict one shape by building two others, rebuild it, and compare.
	s := newPilotTestSynth(t, newPilotCache(largest))
	build := func(k pilotKey) []complex128 {
		ib, err := s.pilotInband(k.nsym, k.offset)
		if err != nil {
			t.Fatal(err)
		}
		return ib
	}
	first := build(keys[0])
	build(keys[1])
	build(keys[2])
	if _, ok := s.pilots.get(keys[0]); ok {
		t.Fatalf("pilot shape %+v still resident in a one-entry cache", keys[0])
	}
	rebuilt := build(keys[0])
	if &rebuilt[0] == &first[0] {
		t.Fatal("evicted pilot shape came back without a rebuild")
	}
	orig, _ := full.get(keys[0])
	if !sameWave(rebuilt, first) || !sameWave(rebuilt, orig) {
		t.Errorf("rebuilt pilot shape %+v differs from the evicted one", keys[0])
	}
}
