package btrx

import (
	"math"
	"testing"

	"bluefi/internal/bt"
	"bluefi/internal/channel"
	"bluefi/internal/dsp"
	"bluefi/internal/gfsk"
)

// iqFromBytes maps arbitrary fuzz bytes onto an IQ stream: each byte
// pair becomes one complex sample spanning a hostile amplitude range
// (including zeros and large spikes).
func iqFromBytes(data []byte) []complex128 {
	iq := make([]complex128, len(data)/2)
	for i := range iq {
		re := (float64(data[2*i]) - 127.5) / 32
		im := (float64(data[2*i+1]) - 127.5) / 32
		if data[2*i]%17 == 0 {
			re *= 1e6 // spike
		}
		iq[i] = complex(re, im)
	}
	return iq
}

// FuzzReceiveBLE feeds truncated, bit-flipped and hostile IQ into every
// receive path. The receiver must never panic — a garbage capture
// returns a report (or an error), nothing else.
func FuzzReceiveBLE(f *testing.F) {
	// Seed 1: a genuine advertisement, so mutations explore the
	// near-valid space (bit flips, truncation) rather than pure noise.
	adv := &bt.Advertisement{PDUType: bt.AdvInd, AdvA: [6]byte{0xBF, 1, 2, 3, 4, 5}, Data: []byte{2, 1, 6}}
	air, err := adv.AirBits(38)
	if err != nil {
		f.Fatal(err)
	}
	wave, err := gfsk.BLEConfig().Modulate(air)
	if err != nil {
		f.Fatal(err)
	}
	seed := make([]byte, 0, 2*len(wave))
	for _, s := range wave {
		seed = append(seed, byte(real(s)*32+127.5), byte(imag(s)*32+127.5))
	}
	f.Add(seed, 38, int64(1))
	f.Add([]byte{}, 37, int64(2))
	f.Add([]byte{0, 255, 1, 254}, 39, int64(3))
	f.Add(make([]byte, 4096), 38, int64(4))

	f.Fuzz(func(t *testing.T, data []byte, ch int, seedv int64) {
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		iq := iqFromBytes(data)
		for i, s := range iq {
			// NaN/Inf hostile samples on a stride.
			if i%251 == 250 {
				iq[i] = complex(math.Inf(1), math.NaN())
			}
			_ = s
		}
		rcv, err := NewReceiver(Pixel, 2e6, bt.Device{LAP: 0x9E8B33, UAP: 0x47})
		if err != nil {
			t.Fatal(err)
		}
		rcv.Reseed(seedv)
		advCh := bt.AdvChannels[abs(ch)%len(bt.AdvChannels)]
		if _, err := rcv.ReceiveBLE(iq, advCh); err != nil {
			t.Fatalf("ReceiveBLE returned an error on hostile IQ: %v", err)
		}
		dataCh := abs(ch) % bt.NumLEDataChannels
		if _, err := rcv.ReceiveBLEData(iq, 0x50655535, dataCh, 0xA1B2C3); err != nil {
			t.Fatalf("ReceiveBLEData returned an error on hostile IQ: %v", err)
		}
		if _, err := rcv.ReceiveBR(iq, uint32(seedv)); err != nil {
			t.Fatalf("ReceiveBR returned an error on hostile IQ: %v", err)
		}
	})
}

func abs(v int) int {
	if v < 0 {
		if v == math.MinInt {
			return 0
		}
		return -v
	}
	return v
}

func TestReceiveBLEDataCleanLoopback(t *testing.T) {
	const aa, crcInit = uint32(0x50655535), uint32(0xA1B2C3)
	pdu := &bt.DataPDU{LLID: bt.LLIDStart, SN: true, Payload: []byte{0x05, 0x00, 0x04, 0x00, 0x0B, 0xCA, 0xFE, 0x42, 0x99}}
	for _, dataCh := range []int{9, 12, 18} {
		air, err := pdu.AirBits(aa, dataCh, crcInit)
		if err != nil {
			t.Fatal(err)
		}
		wave, err := gfsk.BLEConfig().Modulate(air)
		if err != nil {
			t.Fatal(err)
		}
		dsp.Mix(wave, 3e6, 20e6)
		ch := channel.Default(18, 1.5)
		rx, err := ch.Apply(wave)
		if err != nil {
			t.Fatal(err)
		}
		rcv, err := NewReceiver(Pixel, 3e6, bt.Device{})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := rcv.ReceiveBLEData(rx, aa, dataCh, crcInit)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Detected || !rep.Result.OK || rep.Data == nil {
			t.Fatalf("data channel %d: decode failed: %+v", dataCh, rep)
		}
		if string(rep.Data.Payload) != string(pdu.Payload) || rep.Data.SN != pdu.SN || rep.Data.LLID != pdu.LLID {
			t.Fatalf("data channel %d: PDU corrupted: %+v", dataCh, rep.Data)
		}
	}
}
