package scan

import (
	"reflect"
	"testing"

	"bluefi/internal/bt"
	"bluefi/internal/btrx"
	"bluefi/internal/channel"
)

// TestAirMatchesScanner pins the one Report → Outcome mapping: the air
// path over a receiver seeded as the scanner seeds its first capture
// reports exactly what the scanner reports for the channel's output.
func TestAirMatchesScanner(t *testing.T) {
	wave, off := advWave(t, 38)
	m := channel.Default(18, 2)
	m.Seed = 3
	rx, err := m.Apply(wave)
	if err != nil {
		t.Fatal(err)
	}
	want := NewScanner(Config{Profile: btrx.Pixel, Seed: 7}).Ingest(Capture{Kind: KindBLEAdv, Channel: 38, OffsetHz: off, IQ: rx})

	rcv, err := btrx.NewReceiver(btrx.Pixel, off, bt.Device{})
	if err != nil {
		t.Fatal(err)
	}
	rcv.Reseed(deriveSeed(7, 0))
	got := Air(rcv, m, nil, Capture{Kind: KindBLEAdv, Channel: 38, IQ: wave})
	if !got.Decoded || got.Adv == nil {
		t.Fatalf("clean advertisement not decoded over the air: %+v", got)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("air path %+v\nscanner  %+v", got, want)
	}
}

func TestAirInterfererAndErrors(t *testing.T) {
	wave, off := advWave(t, 38)
	rcv, err := btrx.NewReceiver(btrx.Pixel, off, bt.Device{})
	if err != nil {
		t.Fatal(err)
	}
	m := channel.Default(18, 2)
	// A continuous burst far above the signal buries it.
	storm := &channel.Interferer{PowerDBm: m.RxPowerDBm() + 20, DutyCycle: 1, BurstSamples: 4800, Seed: 1}
	if out := Air(rcv, m, storm, Capture{Kind: KindBLEAdv, Channel: 38, IQ: wave}); out.Err != nil || out.Decoded {
		t.Fatalf("decoded under a 20 dB interferer: %+v", out)
	}
	if out := Air(rcv, m, nil, Capture{Kind: KindBLEAdv, Channel: 38}); out.Err == nil {
		t.Error("empty waveform accepted")
	}
	if out := Air(rcv, m, nil, Capture{Kind: KindBLEData, Channel: 5, IQ: wave}); out.Err == nil {
		t.Error("data capture accepted with no followed connection")
	}
}
