package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"bluefi/internal/bt"
	"bluefi/internal/btrx"
	"bluefi/internal/gfsk"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/synth_corpus.txt from the current synthesis output")

// corpusGroup is one family of seeded packets in the synthesis corpus:
// n packets (short of them under -short) drawn from one seed, each
// synthesized by one shared Synthesizer so caches carry across packets
// as they do in a stream.
type corpusGroup struct {
	name     string
	mode     Mode
	ble      bool
	n, short int
	seed     int64
}

var corpusGroups = []corpusGroup{
	{name: "realtime-dm1", mode: RealTime, n: 150, short: 12, seed: 1801},
	{name: "quality-dm1", mode: Quality, n: 40, short: 4, seed: 1802},
	{name: "realtime-ble", mode: RealTime, ble: true, n: 40, short: 3, seed: 1803},
	{name: "quality-ble", mode: Quality, ble: true, n: 40, short: 3, seed: 1804},
}

func corpusPath() string { return filepath.Join("testdata", "synth_corpus.txt") }

// corpusDigest hashes everything a search selection decides: the PSDU,
// the rehearsal verdict, the fidelity bits and the FEC-inversion flips.
func corpusDigest(res *Result) string {
	h := sha256.New()
	h.Write(res.PSDU)
	var b [8]byte
	for _, v := range []uint64{uint64(int64(res.RehearsalMismatches)), math.Float64bits(res.PhaseRMSE), uint64(res.Flips)} {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	if res.RehearsalDecodes {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// readCorpus loads the committed digests, keyed by packet name.
func readCorpus(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(corpusPath())
	if err != nil {
		t.Fatalf("missing corpus digest (regenerate with -update-corpus): %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, digest, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = digest
		}
	}
	return want
}

// corpusPacket draws a group's next packet: a random DM1 packet on a
// random Bluetooth channel WiFi channel 3 covers, sent with its FEC
// layout, or a random non-connectable advertisement on channel 38.
func corpusPacket(t *testing.T, g corpusGroup, rng *rand.Rand) (air []byte, mhz float64, layout bt.FECLayout) {
	t.Helper()
	if g.ble {
		adv := &bt.Advertisement{PDUType: bt.AdvNonconnInd, Data: make([]byte, 3+rng.Intn(29))}
		rng.Read(adv.AdvA[:])
		rng.Read(adv.Data)
		air, err := adv.AirBits(38)
		if err != nil {
			t.Fatal(err)
		}
		return air, 2426, nil
	}
	pkt := &bt.Packet{Type: bt.DM1, LTAddr: byte(1 + rng.Intn(7)), SEQN: byte(rng.Intn(2)),
		Payload: make([]byte, 1+rng.Intn(bt.DM1.MaxPayload())), Clock: uint32(rng.Intn(1 << 16))}
	rng.Read(pkt.Payload)
	dev := bt.Device{LAP: uint32(rng.Intn(1 << 24)), UAP: byte(rng.Intn(256))}
	air, err := pkt.AirBits(dev)
	if err != nil {
		t.Fatal(err)
	}
	return air, float64(2416 + rng.Intn(13)), pkt.FECLayout(btrx.SyncErrorBudget)
}

// TestSynthesisCorpus pins the search's selection over a seeded corpus
// of DM1 packets (both modes, searched with their FEC layout) and BLE
// advertisements: one digest per packet, compared line by line with
// testdata/synth_corpus.txt. Any change to the synthesis pipeline that
// moves one packet's PSDU, rehearsal verdict, fidelity or flip count
// fails here. -short checks a prefix of each group. Regenerate with
// -update-corpus only after an intentional output change.
func TestSynthesisCorpus(t *testing.T) {
	want := map[string]string{}
	if !*updateCorpus {
		want = readCorpus(t)
	}
	var lines []string
	for _, g := range corpusGroups {
		opts := DefaultOptions()
		opts.Mode = g.mode
		opts.GFSK = gfsk.BRConfig()
		if g.ble {
			opts.GFSK = gfsk.BLEConfig()
		}
		opts.SearchParallelism = 1
		s, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		n := g.n
		if testing.Short() && !*updateCorpus {
			n = g.short
		}
		rng := rand.New(rand.NewSource(g.seed))
		for i := 0; i < n; i++ {
			air, mhz, layout := corpusPacket(t, g, rng)
			res, err := s.SynthesizeFEC(air, mhz, layout)
			if err != nil {
				t.Fatalf("%s/%d: %v", g.name, i, err)
			}
			name, got := fmt.Sprintf("%s/%03d", g.name, i), corpusDigest(res)
			lines = append(lines, name+" "+got)
			if !*updateCorpus && want[name] != got {
				t.Errorf("%s: digest %s, corpus %q (PSDU %d bytes, %d mismatches, decodes %v, %d flips)",
					name, got, want[name], len(res.PSDU), res.RehearsalMismatches, res.RehearsalDecodes, res.Flips)
			}
		}
	}
	if *updateCorpus {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(corpusPath(), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d corpus digests to %s", len(lines), corpusPath())
	}
}

// TestSearchDeterministicUnderContention synthesizes the corpus's
// RealTime DM1 packets on GOMAXPROCS+1 concurrent synthesizers, each
// free to fan its search out. The syntheses alone hold more slots than
// there are CPUs, so search helpers are granted only some of the time,
// and whatever mix of serial and concurrent candidates each search gets,
// every packet must match the serial run's committed digest. Afterwards
// no slot may stay held.
func TestSearchDeterministicUnderContention(t *testing.T) {
	want := readCorpus(t)
	g := corpusGroups[0]
	if g.name != "realtime-dm1" {
		t.Fatalf("corpus group 0 is %s, want realtime-dm1", g.name)
	}
	n := g.n
	if testing.Short() {
		n = g.short
	}
	type packet struct {
		air    []byte
		mhz    float64
		layout bt.FECLayout
	}
	rng := rand.New(rand.NewSource(g.seed))
	pkts := make([]packet, n)
	for i := range pkts {
		pkts[i].air, pkts[i].mhz, pkts[i].layout = corpusPacket(t, g, rng)
	}
	synths := runtime.GOMAXPROCS(0) + 1
	got := make([]string, n)
	var wg sync.WaitGroup
	for w := 0; w < synths; w++ {
		opts := DefaultOptions()
		opts.Mode = g.mode
		opts.GFSK = gfsk.BRConfig()
		s, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += synths {
				res, err := s.SynthesizeFEC(pkts[i].air, pkts[i].mhz, pkts[i].layout)
				if err != nil {
					t.Errorf("%s/%03d: %v", g.name, i, err)
					return
				}
				got[i] = corpusDigest(res)
			}
		}(w)
	}
	wg.Wait()
	for i, d := range got {
		if name := fmt.Sprintf("%s/%03d", g.name, i); d != want[name] {
			t.Errorf("%s: digest %s under contention, serial corpus %q", name, d, want[name])
		}
	}
	if held := busySlots.Load(); held != 0 {
		t.Errorf("%d slots still held after every synthesis returned", held)
	}
}
