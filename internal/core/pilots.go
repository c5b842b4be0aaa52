package core

import (
	"container/list"
	"sync"

	"bluefi/internal/dsp"
	"bluefi/internal/wifi"
)

// The in-band pilot prediction (precompensatePilots) is fixed by the
// standard: pilot tones at ±7 and ±21 with the known polarity sequence,
// modulated like the data field, mixed to the Bluetooth channel and
// filtered by the nominal channel filter. It depends on the modulation
// (the pilot amplitude), the symbol count and the Bluetooth offset,
// never on the payload, so one prediction per key serves every
// synthesizer and search worker in the process.

// pilotKey identifies one in-band pilot prediction.
type pilotKey struct {
	mod    wifi.Modulation
	nsym   int
	offset float64
}

// pilotCacheBytes bounds the resident in-band pilot predictions of the
// process. One entry is nsym·80 complex samples, ≈140 KB for a BLE
// beacon's 111 symbols, so the bound holds about 30 (modulation, length,
// offset) shapes. Serving needs far fewer: the bench's beacon fleet on
// one channel holds 3 entries (≈380 KB) and its two A2DP streams 9
// (≈1.2 MB).
const pilotCacheBytes = 4 << 20

// pilotEntry is one immutable prediction: ib is shared read-only by
// every synthesizer that looks its key up.
type pilotEntry struct {
	key pilotKey
	ib  []complex128
}

func (e *pilotEntry) sizeBytes() int64 { return 16 * int64(len(e.ib)) }

// pilotCache holds in-band pilot predictions under a resident-byte bound,
// evicting least recently used entries. Its methods are safe for
// concurrent use; the slices it hands out are never written again.
type pilotCache struct {
	max int64

	mu    sync.Mutex
	lru   *list.List                 // of *pilotEntry, front = most recent; guarded by mu
	byKey map[pilotKey]*list.Element // guarded by mu
	bytes int64                      // guarded by mu
}

func newPilotCache(maxBytes int64) *pilotCache {
	return &pilotCache{max: maxBytes, lru: list.New(), byKey: make(map[pilotKey]*list.Element)}
}

// sharedPilots is the process-wide pilot cache every Synthesizer uses.
var sharedPilots = newPilotCache(pilotCacheBytes)

// get returns the cached prediction for key, if resident.
func (c *pilotCache) get(key pilotKey) ([]complex128, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*pilotEntry).ib, true
}

// add caches ib, a freshly built prediction for key, and returns the
// prediction callers should use: the resident one when another
// synthesizer added the key first (both are identical), else ib. An
// entry larger than the whole bound is returned uncached.
func (c *pilotCache) add(key pilotKey, ib []complex128) []complex128 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*pilotEntry).ib
	}
	e := &pilotEntry{key: key, ib: ib}
	size := e.sizeBytes()
	if size > c.max {
		return ib
	}
	for c.bytes+size > c.max {
		old := c.lru.Remove(c.lru.Back()).(*pilotEntry)
		delete(c.byKey, old.key)
		c.bytes -= old.sizeBytes()
	}
	c.byKey[key] = c.lru.PushFront(e)
	c.bytes += size
	return ib
}

// pilotInband returns the in-band pilot prediction for nsym symbols at
// offsetHz, from the synthesizer's pilot cache or built with its own
// modulator and channel filter on a miss.
func (s *Synthesizer) pilotInband(nsym int, offsetHz float64) ([]complex128, error) {
	key := pilotKey{mod: s.mcs.Modulation, nsym: nsym, offset: offsetHz}
	if ib, ok := s.pilots.get(key); ok {
		return ib, nil
	}
	// Pilot-only symbols in grid units, modulated like the data field.
	pilotAmp := wifi.PilotAmplitude(s.mcs.Modulation)
	symbols := make([][]complex128, nsym)
	empty := make([]complex128, len(wifi.HTDataSubcarriers))
	for k := 0; k < nsym; k++ {
		sym, err := wifi.BuildSymbol(empty, wifi.DataPolarityBase+k, pilotAmp)
		if err != nil {
			return nil, err
		}
		symbols[k] = sym
	}
	pWave, err := s.mod.Modulate(symbols)
	if err != nil {
		return nil, err
	}
	// In-band pilot component at the Bluetooth channel.
	p := pWave[:nsym*symbolLen]
	dsp.Mix(p, -offsetHz, wifi.SampleRate)
	ib := s.channelFIR.Apply(p)
	dsp.Mix(ib, +offsetHz, wifi.SampleRate)
	return s.pilots.add(key, ib), nil
}
