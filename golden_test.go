package bluefi_test

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"bluefi"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_psdus.json from the current synthesis output")

// goldenVector pins one synthesized PSDU: chip model × mode × BLE/WiFi
// channel pair, for a fixed beacon — or, for the BR vectors, a fixed DM1
// packet whose rehearsal search stops on its FEC layout. The committed
// vectors make synthesis determinism externally visible — any change to the pipeline that moves
// a single bit fails this test, and the parallel rehearsal search must
// reproduce them no matter how many workers it fans over (run with
// -cpu 1,4,8: GOMAXPROCS sizes the default search parallelism).
type goldenVector struct {
	Chip string `json:"chip"`
	Mode string `json:"mode"`
	// Packet is empty for the beacon vectors and names the BR packet
	// type ("DM1") sent on BTChannel otherwise.
	Packet      string `json:"packet,omitempty"`
	BTChannel   int    `json:"btChannel,omitempty"`
	BLEChannel  int    `json:"bleChannel"`
	WiFiChannel int    `json:"wifiChannel"`
	MCS         int    `json:"mcs"`
	Mismatches  int    `json:"rehearsalMismatches"`
	PSDU        string `json:"psduHex"`
	// Fidelity is %016x of the float64 bits of Packet.Fidelity: the
	// predicted waveform's in-band phase RMSE, pinned bit for bit.
	Fidelity string `json:"fidelityBits"`
}

var goldenChips = map[string]bluefi.ChipModel{
	"AR9331":    bluefi.AR9331,
	"RTL8811AU": bluefi.RTL8811AU,
}

var goldenModes = map[string]bluefi.Mode{
	"Quality":  bluefi.Quality,
	"RealTime": bluefi.RealTime,
}

// Advertising channels and WiFi channels that cover them. Channel 37
// (2402 MHz) sits outside every usable WiFi channel plan, so the matrix
// covers 38 (2426 MHz) from two different WiFi channels — different
// subcarrier alignments — and 39 (2480 MHz) in channel 13.
var goldenChannels = []struct{ ble, wifi int }{
	{38, 3},
	{38, 4},
	{39, 13},
}

func goldenBeacon(t *testing.T, chipName, modeName string, bleCh, wifiCh int) *bluefi.Packet {
	t.Helper()
	syn, err := bluefi.New(bluefi.Options{
		Chip:        goldenChips[chipName],
		Mode:        goldenModes[modeName],
		WiFiChannel: wifiCh,
	})
	if err != nil {
		t.Fatal(err)
	}
	ib := bluefi.IBeacon{Major: 0xB1, Minor: 0xF1}
	pkt, err := syn.Beacon(ib.ADStructures(), [6]byte{0xBF, 0x01, 0x02, 0x03, 0x04, 0x05}, bleCh)
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// goldenBR synthesizes the fixed DM1 packet of the BR vectors.
func goldenBR(t *testing.T, chipName, modeName string, btCh, wifiCh int) *bluefi.Packet {
	t.Helper()
	syn, err := bluefi.New(bluefi.Options{
		Chip:        goldenChips[chipName],
		Mode:        goldenModes[modeName],
		WiFiChannel: wifiCh,
	})
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := syn.BRPacket(bluefi.Device{LAP: 0x2A96EF, UAP: 0x5D}, &bluefi.BasebandPacket{
		Type: bluefi.DM1, LTAddr: 1, LLID: 2, Payload: []byte("bluefi golden dm1"), Clock: 8,
	}, btCh)
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// synthesize builds the vector's packet.
func (v goldenVector) synthesize(t *testing.T) *bluefi.Packet {
	if v.Packet != "" {
		return goldenBR(t, v.Chip, v.Mode, v.BTChannel, v.WiFiChannel)
	}
	return goldenBeacon(t, v.Chip, v.Mode, v.BLEChannel, v.WiFiChannel)
}

func (v goldenVector) name() string {
	if v.Packet != "" {
		return fmt.Sprintf("%s/%s/%s-bt%d-wifi%d", v.Chip, v.Mode, v.Packet, v.BTChannel, v.WiFiChannel)
	}
	return fmt.Sprintf("%s/%s/ble%d-wifi%d", v.Chip, v.Mode, v.BLEChannel, v.WiFiChannel)
}

func fidelityBits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

func goldenPath() string { return filepath.Join("testdata", "golden_psdus.json") }

func goldenCases(short bool) []goldenVector {
	var out []goldenVector
	for _, chipName := range []string{"AR9331", "RTL8811AU"} {
		for _, modeName := range []string{"Quality", "RealTime"} {
			for _, ch := range goldenChannels {
				if short && ch.wifi != 3 {
					continue // short mode: the 38/3 pair per chip × mode
				}
				out = append(out, goldenVector{Chip: chipName, Mode: modeName, BLEChannel: ch.ble, WiFiChannel: ch.wifi})
			}
		}
	}
	return out
}

// goldenBRCases pins BR synthesis: the DM1 packet on Bluetooth channel
// 16 (2418 MHz, a best audio channel of WiFi channel 3) in both modes.
func goldenBRCases() []goldenVector {
	return []goldenVector{
		{Chip: "AR9331", Mode: "Quality", Packet: "DM1", BTChannel: 16, WiFiChannel: 3},
		{Chip: "AR9331", Mode: "RealTime", Packet: "DM1", BTChannel: 16, WiFiChannel: 3},
	}
}

// TestGoldenPSDUs synthesizes every vector and compares byte-for-byte
// against the committed goldens. Run with -update-golden after an
// intentional pipeline change; review the diff like any other code.
func TestGoldenPSDUs(t *testing.T) {
	if *updateGolden {
		var vectors []goldenVector
		for _, c := range append(goldenCases(false), goldenBRCases()...) {
			pkt := c.synthesize(t)
			c.MCS = pkt.MCS
			c.Mismatches = pkt.RehearsalMismatches
			c.PSDU = hex.EncodeToString(pkt.PSDU)
			c.Fidelity = fidelityBits(pkt.Fidelity)
			vectors = append(vectors, c)
		}
		data, err := json.MarshalIndent(vectors, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden vectors to %s", len(vectors), goldenPath())
		return
	}

	data, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("missing goldens (regenerate with -update-golden): %v", err)
	}
	var vectors []goldenVector
	if err := json.Unmarshal(data, &vectors); err != nil {
		t.Fatal(err)
	}
	byKey := map[string]goldenVector{}
	for _, v := range vectors {
		byKey[v.name()] = v
	}
	for _, c := range append(goldenCases(testing.Short()), goldenBRCases()...) {
		name := c.name()
		t.Run(name, func(t *testing.T) {
			want, ok := byKey[name]
			if !ok {
				t.Fatalf("no golden vector for %s (regenerate with -update-golden)", name)
			}
			wantPSDU, err := hex.DecodeString(want.PSDU)
			if err != nil {
				t.Fatal(err)
			}
			pkt := c.synthesize(t)
			if pkt.MCS != want.MCS {
				t.Errorf("MCS %d, golden %d", pkt.MCS, want.MCS)
			}
			if pkt.RehearsalMismatches != want.Mismatches {
				t.Errorf("RehearsalMismatches %d, golden %d", pkt.RehearsalMismatches, want.Mismatches)
			}
			if got := fidelityBits(pkt.Fidelity); got != want.Fidelity {
				t.Errorf("Fidelity bits %s (%g), golden %s", got, pkt.Fidelity, want.Fidelity)
			}
			if !bytes.Equal(pkt.PSDU, wantPSDU) {
				i := 0
				for i < len(pkt.PSDU) && i < len(wantPSDU) && pkt.PSDU[i] == wantPSDU[i] {
					i++
				}
				t.Errorf("PSDU differs from golden at byte %d (%d vs %d bytes total)", i, len(pkt.PSDU), len(wantPSDU))
			}
		})
	}
}
