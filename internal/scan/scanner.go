// Package scan implements the receive side of the BlueFi loop: a
// continuous multi-channel scanner that sweeps the BLE advertising
// channels (37/38/39) plus an AFH-confined data-channel set, ingests IQ
// captures from the channel model, demodulates them through
// internal/btrx and aggregates decode outcomes (per-channel PDR, RSSI,
// CRC failures) into internal/obs metrics with a JSON export sink.
//
// The package sits in the determinism analyzer's strict tier: scanning
// the same captures with the same Config.Seed yields byte-identical
// outcomes and statistics whether the sweep runs serially or in
// parallel, on any GOMAXPROCS. Every capture gets its own receiver
// seeded from (Config.Seed, sequence number) so randomness consumption
// never depends on scheduling.
//
// A Scanner is not safe for concurrent use by multiple goroutines;
// SweepParallel manages its own internal fan-out.
//
//bluefi:strict
package scan

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"bluefi/internal/bt"
	"bluefi/internal/btrx"
	"bluefi/internal/obs"
)

// Kind labels the demodulation path a capture is routed through.
type Kind int

// Capture kinds, one per receive path in internal/btrx.
const (
	KindBLEAdv Kind = iota
	KindBLEData
	KindBR
	KindEDR
)

var kindNames = [...]string{"ble-adv", "ble-data", "br", "edr"}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// Capture is one IQ snapshot handed to the scanner, tagged with the
// tuning context the radio front end knew when it sampled.
type Capture struct {
	Kind    Kind
	Channel int // BLE channel index (adv or data) or BR channel 0–78
	// OffsetHz is the packet carrier's offset from the capture's stream
	// center (the WiFi channel center in a BlueFi deployment).
	OffsetHz float64
	IQ       []complex128
	Clk      uint32     // BR/EDR whitening clock (CLK1 in bit 0)
	EDRRate  bt.EDRRate // EDR2/EDR3 for KindEDR
}

// Config parameterizes a Scanner.
type Config struct {
	// Profile is the receiver hardware model (btrx.Pixel, btrx.Sniffer…).
	Profile btrx.Profile
	// Device provides the BR access-code context for KindBR/KindEDR.
	Device bt.Device
	// Seed drives all front-end randomness. Identical seeds and captures
	// reproduce identical outcomes.
	Seed int64
	// MaxSyncErrors overrides the receiver correlation threshold when >0.
	MaxSyncErrors int
	// Telemetry receives bluefi_scan_* metrics; nil disables export.
	Telemetry *obs.Registry
}

// Outcome is the scanner's verdict on one capture.
type Outcome struct {
	Seq         uint64
	Kind        Kind
	Channel     int
	Detected    bool // access code / preamble correlated
	Decoded     bool // header and CRC both passed
	CRCError    bool
	HeaderError bool
	SyncErrors  int
	RSSIdBm     float64
	Payload     []byte
	Adv         *bt.Advertisement // KindBLEAdv decodes
	Data        *bt.DataPDU       // KindBLEData decodes
	Err         error             // capture was malformed (not a decode failure)
}

// ChannelStats aggregates outcomes for one (kind, channel) cell.
type ChannelStats struct {
	Kind           Kind    `json:"-"`
	KindName       string  `json:"kind"`
	Channel        int     `json:"channel"`
	Attempts       int     `json:"attempts"`
	Detected       int     `json:"detected"`
	Decoded        int     `json:"decoded"`
	CRCFailures    int     `json:"crcFailures"`
	HeaderFailures int     `json:"headerFailures"`
	SyncErrorsSum  int     `json:"syncErrorsSum"`
	RSSISumDBm     float64 `json:"-"`
	RSSIMinDBm     float64 `json:"rssiMinDBm"`
	RSSIMaxDBm     float64 `json:"rssiMaxDBm"`
	RSSIMeanDBm    float64 `json:"rssiMeanDBm"`
	PDR            float64 `json:"pdr"`
}

// pdr is the packet delivery ratio: decoded over attempts.
func (s *ChannelStats) pdr() float64 {
	if s.Attempts == 0 {
		return 0
	}
	return float64(s.Decoded) / float64(s.Attempts)
}

type statKey struct {
	kind    Kind
	channel int
}

// cellMetrics are the obs handles for one (kind, channel) cell; all are
// nil-safe when telemetry is disabled.
type cellMetrics struct {
	captures *obs.Counter
	decoded  *obs.Counter
	crcFail  *obs.Counter
	rssi     *obs.Histogram
}

// Scanner sweeps captures through the btrx receive paths and keeps
// per-channel delivery statistics.
type Scanner struct {
	cfg Config
	seq uint64

	// follow is the connection KindBLEData captures decode against (nil
	// until Follow).
	follow *link

	// Stats live in a slice so exports iterate in first-seen order
	// (never ranging a map); the map only resolves key → index.
	stats   []*ChannelStats
	statIdx map[statKey]int
	cells   []cellMetrics
}

// NewScanner builds a scanner. The zero Config is usable: it scans with
// the default profile, no telemetry and seed 0.
func NewScanner(cfg Config) *Scanner {
	if cfg.Profile.Name == "" {
		cfg.Profile = btrx.Sniffer
	}
	return &Scanner{cfg: cfg, statIdx: make(map[statKey]int)}
}

// Follow arms the scanner with a connection's access address and CRC
// init so subsequent KindBLEData captures decode against that link.
func (s *Scanner) Follow(aa, crcInit uint32) {
	s.follow = &link{aa: aa, crcInit: crcInit}
}

// deriveSeed mixes the scanner seed with a capture sequence number via
// splitmix64 so per-capture receivers are independent yet reproducible.
func deriveSeed(seed int64, seq uint64) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*(seq+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E9B5
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// receive demodulates one capture with a fresh receiver seeded from the
// capture's sequence number. It is pure with respect to scanner state
// (reads only cfg and the followed link), so SweepParallel may call it
// from worker goroutines.
func (s *Scanner) receive(c Capture, seq uint64) Outcome {
	rcv, err := btrx.NewReceiver(s.cfg.Profile, c.OffsetHz, s.cfg.Device)
	if err != nil {
		return Outcome{Seq: seq, Kind: c.Kind, Channel: c.Channel, Err: err}
	}
	if s.cfg.MaxSyncErrors > 0 {
		rcv.MaxSyncErrors = s.cfg.MaxSyncErrors
	}
	rcv.Reseed(deriveSeed(s.cfg.Seed, seq))
	out := demodulate(rcv, c, s.follow)
	out.Seq = seq
	return out
}

// cell returns the stats slot for a (kind, channel), creating it on
// first sight along with its telemetry handles.
func (s *Scanner) cell(kind Kind, channel int) (*ChannelStats, cellMetrics) {
	key := statKey{kind, channel}
	if i, ok := s.statIdx[key]; ok {
		return s.stats[i], s.cells[i]
	}
	st := &ChannelStats{Kind: kind, KindName: kind.String(), Channel: channel}
	labels := []obs.Label{obs.L("kind", kind.String()), obs.L("channel", fmt.Sprintf("%d", channel))}
	cm := cellMetrics{
		captures: s.cfg.Telemetry.Counter("bluefi_scan_captures_total", "IQ captures ingested by the scanner", labels...),
		decoded:  s.cfg.Telemetry.Counter("bluefi_scan_decoded_total", "captures that decoded with a valid CRC", labels...),
		crcFail:  s.cfg.Telemetry.Counter("bluefi_scan_crc_failures_total", "captures whose payload CRC failed", labels...),
		rssi:     s.cfg.Telemetry.Histogram("bluefi_scan_rssi_dbm", "per-capture RSSI in dBm", obs.LinearBuckets(-100, 5, 16), labels...),
	}
	s.statIdx[key] = len(s.stats)
	s.stats = append(s.stats, st)
	s.cells = append(s.cells, cm)
	return st, cm
}

// record folds one outcome into the per-channel statistics and metrics.
func (s *Scanner) record(o Outcome) {
	st, cm := s.cell(o.Kind, o.Channel)
	st.Attempts++
	cm.captures.Inc()
	if o.Err != nil {
		return
	}
	if o.Detected {
		st.Detected++
		st.SyncErrorsSum += o.SyncErrors
		if st.Detected == 1 || o.RSSIdBm < st.RSSIMinDBm {
			st.RSSIMinDBm = o.RSSIdBm
		}
		if st.Detected == 1 || o.RSSIdBm > st.RSSIMaxDBm {
			st.RSSIMaxDBm = o.RSSIdBm
		}
		st.RSSISumDBm += o.RSSIdBm
		cm.rssi.Observe(o.RSSIdBm)
	}
	if o.Decoded {
		st.Decoded++
		cm.decoded.Inc()
	}
	if o.CRCError {
		st.CRCFailures++
		cm.crcFail.Inc()
	}
	if o.HeaderError {
		st.HeaderFailures++
	}
}

// Ingest scans one capture and folds it into the statistics.
func (s *Scanner) Ingest(c Capture) Outcome {
	out := s.receive(c, s.seq)
	s.seq++
	s.record(out)
	return out
}

// Sweep ingests captures in order, serially.
func (s *Scanner) Sweep(caps []Capture) []Outcome {
	outs := make([]Outcome, len(caps))
	for i, c := range caps {
		outs[i] = s.Ingest(c)
	}
	return outs
}

// SweepParallel demodulates the captures concurrently and then merges
// outcomes serially in capture order, so its results and statistics are
// byte-identical to Sweep's for the same scanner state.
func (s *Scanner) SweepParallel(caps []Capture) []Outcome {
	outs := make([]Outcome, len(caps))
	base := s.seq
	var wg sync.WaitGroup
	for i := range caps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = s.receive(caps[i], base+uint64(i))
		}(i)
	}
	wg.Wait()
	s.seq = base + uint64(len(caps))
	for i := range outs {
		s.record(outs[i])
	}
	return outs
}

// Snapshot is the export form of the scanner's aggregate state.
type Snapshot struct {
	Seed     int64           `json:"seed"`
	Profile  string          `json:"profile"`
	Captures uint64          `json:"captures"`
	Channels []*ChannelStats `json:"channels"`
}

// Snapshot copies the per-channel statistics (in first-seen order) with
// the derived PDR and mean-RSSI fields filled in.
func (s *Scanner) Snapshot() Snapshot {
	snap := Snapshot{Seed: s.cfg.Seed, Profile: s.cfg.Profile.Name, Captures: s.seq}
	snap.Channels = make([]*ChannelStats, len(s.stats))
	for i, st := range s.stats {
		cp := *st
		cp.PDR = st.pdr()
		if st.Detected > 0 {
			cp.RSSIMeanDBm = st.RSSISumDBm / float64(st.Detected)
		}
		snap.Channels[i] = &cp
	}
	return snap
}

// WriteJSON exports the snapshot to w, the scanner's export sink format
// consumed by bluefi-eval and the benchmark report.
func (snap Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// AdvSweepPlan returns the standing scan list BlueFi's receive loop
// cycles through under one WiFi channel: the three advertising channels
// first, then the AFH-confined data channels inside the WiFi band.
func AdvSweepPlan(wifiCenterMHz, guardMHz float64) []int {
	plan := make([]int, 0, 3+bt.NumLEDataChannels)
	plan = append(plan, bt.AdvChannels...)
	plan = append(plan, bt.LEDataChannelsInWiFiBand(wifiCenterMHz, guardMHz)...)
	return plan
}

// ChannelOffsetHz converts a BLE channel index to its carrier offset
// from a WiFi center frequency — the OffsetHz a Capture under that WiFi
// channel should carry.
func ChannelOffsetHz(bleChannel int, wifiCenterMHz float64) (float64, error) {
	f, err := bt.BLEChannelMHz(bleChannel)
	if err != nil {
		return 0, err
	}
	return (f - wifiCenterMHz) * 1e6, nil
}
