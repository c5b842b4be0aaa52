package scan

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"bluefi/internal/bt"
	"bluefi/internal/btrx"
	"bluefi/internal/channel"
	"bluefi/internal/dsp"
	"bluefi/internal/gfsk"
	"bluefi/internal/leaktest"
	"bluefi/internal/obs"
)

// advWave builds an ideal GFSK advertisement on bleCh mixed to the
// channel's offset under WiFi channel 3: a transmit waveform and the
// offset it sits at.
func advWave(t testing.TB, bleCh int) ([]complex128, float64) {
	t.Helper()
	adv := &bt.Advertisement{PDUType: bt.AdvInd, AdvA: [6]byte{0xBF, 1, 2, 3, 4, 5}, Data: []byte{0x02, 0x01, 0x06, 0x03, 0xFF, 0xB1, 0xF1}}
	air, err := adv.AirBits(bleCh)
	if err != nil {
		t.Fatal(err)
	}
	wave, err := gfsk.BLEConfig().Modulate(air)
	if err != nil {
		t.Fatal(err)
	}
	off, err := ChannelOffsetHz(bleCh, 2422)
	if err != nil {
		t.Fatal(err)
	}
	dsp.Mix(wave, off, 20e6)
	return wave, off
}

// advCapture builds one advertising capture: advWave run through a
// seeded channel model.
func advCapture(t testing.TB, bleCh int, seed int64, distM float64) Capture {
	t.Helper()
	wave, off := advWave(t, bleCh)
	m := channel.Default(18, distM)
	m.Seed = seed
	iq, err := m.Apply(wave)
	if err != nil {
		t.Fatal(err)
	}
	return Capture{Kind: KindBLEAdv, Channel: bleCh, OffsetHz: off, IQ: iq}
}

func TestScannerIngestAdvertisement(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewScanner(Config{Profile: btrx.Pixel, Seed: 7, Telemetry: reg})
	out := s.Ingest(advCapture(t, 38, 1, 2))
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if !out.Detected || !out.Decoded || out.Adv == nil {
		t.Fatalf("clean advertisement not decoded: %+v", out)
	}
	if out.Adv.AdvA != ([6]byte{0xBF, 1, 2, 3, 4, 5}) {
		t.Fatalf("wrong AdvA: %x", out.Adv.AdvA)
	}
	snap := s.Snapshot()
	if len(snap.Channels) != 1 || snap.Channels[0].PDR != 1 || snap.Channels[0].Channel != 38 {
		t.Fatalf("snapshot wrong: %+v", snap.Channels)
	}
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"kind": "ble-adv"`, `"pdr": 1`, `"channel": 38`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("export sink missing %s:\n%s", want, buf.String())
		}
	}
	if got := reg.Counter("bluefi_scan_decoded_total", "", obs.L("kind", "ble-adv"), obs.L("channel", "38")).Value(); got != 1 {
		t.Errorf("bluefi_scan_decoded_total = %d, want 1", got)
	}
}

// sweepCaptures builds a mixed multi-channel batch: all three adv
// channels at several distances, some far enough to fail.
func sweepCaptures(t *testing.T) []Capture {
	t.Helper()
	var caps []Capture
	seed := int64(100)
	for _, ch := range bt.AdvChannels {
		for _, dist := range []float64{1, 4, 12, 60, 200} {
			caps = append(caps, advCapture(t, ch, seed, dist))
			seed++
		}
	}
	return caps
}

func outcomesEqual(a, b []Outcome) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if (x.Err == nil) != (y.Err == nil) {
			return false
		}
		x.Err, y.Err = nil, nil
		x.Adv, y.Adv = nil, nil
		x.Data, y.Data = nil, nil
		if !reflect.DeepEqual(x, y) {
			return false
		}
		if !reflect.DeepEqual(a[i].Adv, b[i].Adv) || !reflect.DeepEqual(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

// TestSweepParallelMatchesSerial is the scanner's determinism contract:
// the parallel sweep must produce byte-identical outcomes and
// statistics to the serial one, and leave no goroutine running. Run
// with -cpu 1,4,8.
func TestSweepParallelMatchesSerial(t *testing.T) {
	caps := sweepCaptures(t)
	noLeak := leaktest.Check(t)
	serial := NewScanner(Config{Profile: btrx.Pixel, Seed: 42})
	par := NewScanner(Config{Profile: btrx.Pixel, Seed: 42})
	want := serial.Sweep(caps)
	got := par.SweepParallel(caps)
	if !outcomesEqual(want, got) {
		t.Fatalf("parallel sweep diverged from serial:\nserial %+v\nparallel %+v", want, got)
	}
	var a, b bytes.Buffer
	if err := serial.Snapshot().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := par.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("snapshots diverged:\n%s\nvs\n%s", a.String(), b.String())
	}
	// Repeat runs with the same seed are identical too.
	again := NewScanner(Config{Profile: btrx.Pixel, Seed: 42})
	if !outcomesEqual(want, again.SweepParallel(caps)) {
		t.Fatal("re-running the sweep with the same seed diverged")
	}
	noLeak()
	// And a different seed must actually change something (the noise
	// realizations differ), or the per-capture seeding is dead code.
	other := NewScanner(Config{Profile: btrx.Pixel, Seed: 43})
	diff := other.Sweep(caps)
	same := true
	for i := range want {
		if want[i].RSSIdBm != diff[i].RSSIdBm {
			same = false
		}
	}
	if same {
		t.Error("seed 42 and 43 produced identical RSSI readings")
	}
}

func TestScannerStatsAggregate(t *testing.T) {
	s := NewScanner(Config{Profile: btrx.Pixel, Seed: 5})
	caps := sweepCaptures(t)
	outs := s.Sweep(caps)
	snap := s.Snapshot()
	if len(snap.Channels) != 3 {
		t.Fatalf("expected 3 channel cells, got %d", len(snap.Channels))
	}
	decoded := 0
	for _, o := range outs {
		if o.Decoded {
			decoded++
		}
	}
	total := 0
	for _, st := range snap.Channels {
		total += st.Decoded
		if st.Attempts != 5 {
			t.Errorf("channel %d attempts = %d, want 5", st.Channel, st.Attempts)
		}
		if st.Decoded > 0 && (st.RSSIMinDBm > st.RSSIMeanDBm || st.RSSIMeanDBm > st.RSSIMaxDBm) {
			t.Errorf("channel %d RSSI ordering broken: %+v", st.Channel, st)
		}
	}
	if total != decoded {
		t.Fatalf("snapshot decoded %d != outcome decoded %d", total, decoded)
	}
	if decoded < 6 {
		t.Fatalf("only %d/%d captures decoded; near captures should succeed", decoded, len(caps))
	}
	if snap.Captures != uint64(len(caps)) {
		t.Fatalf("Captures = %d, want %d", snap.Captures, len(caps))
	}
}

func TestScannerMalformedCaptures(t *testing.T) {
	s := NewScanner(Config{})
	if out := s.Ingest(Capture{Kind: KindBLEAdv, Channel: 12}); out.Err == nil {
		t.Error("adv capture on a data channel accepted")
	}
	if out := s.Ingest(Capture{Kind: KindBLEData, Channel: 9}); out.Err == nil {
		t.Error("data capture with no followed connection accepted")
	}
	if out := s.Ingest(Capture{Kind: Kind(99), Channel: 0}); out.Err == nil {
		t.Error("unknown kind accepted")
	}
	s.Follow(0x50655535, 0xA1B2C3)
	if out := s.Ingest(Capture{Kind: KindBLEData, Channel: 40}); out.Err == nil {
		t.Error("data capture on channel 40 accepted")
	}
	snap := s.Snapshot()
	for _, st := range snap.Channels {
		if st.Decoded != 0 || st.Detected != 0 {
			t.Errorf("malformed capture counted as received: %+v", st)
		}
	}
}

func TestAdvSweepPlan(t *testing.T) {
	plan := AdvSweepPlan(2422, 1)
	if len(plan) < 4 {
		t.Fatalf("sweep plan too small: %v", plan)
	}
	for i, ch := range bt.AdvChannels {
		if plan[i] != ch {
			t.Fatalf("plan does not lead with advertising channels: %v", plan)
		}
	}
	seen := map[int]bool{}
	for _, ch := range plan {
		if seen[ch] {
			t.Fatalf("duplicate channel %d in plan %v", ch, plan)
		}
		seen[ch] = true
	}
	if fmt.Sprint(plan) != fmt.Sprint(AdvSweepPlan(2422, 1)) {
		t.Fatal("sweep plan is not deterministic")
	}
}

// BenchmarkIngest is the scanner's per-capture cost on one clean
// advertisement; allocs/op counts the receive path's allocations.
func BenchmarkIngest(b *testing.B) {
	c := advCapture(b, 38, 1, 2)
	s := NewScanner(Config{Profile: btrx.Pixel, Seed: 7})
	s.Ingest(c) // first sight of the cell allocates its stats slot
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := s.Ingest(c); !out.Decoded {
			b.Fatalf("capture %d not decoded", i)
		}
	}
}
