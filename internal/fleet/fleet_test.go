package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"bluefi/internal/leaktest"
	"bluefi/internal/obs"
)

// fakeEntry builds a cache entry without running synthesis.
func fakeEntry(k Key, psdu []byte, airtimeSeconds float64) *Entry {
	return &Entry{Key: k, PSDU: psdu, MCS: 1, WiFiChannel: 3,
		FrequencyMHz: 2426, AirtimeSeconds: airtimeSeconds, Fidelity: 1}
}

func keyOf(n byte) Key {
	var k Key
	k[0] = n
	return k
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2, 1, nil)
	for n := byte(1); n <= 3; n++ {
		c.Warm(fakeEntry(keyOf(n), []byte{n}, 1e-4))
	}
	if got := c.Peek(keyOf(1)); got != nil {
		t.Fatal("oldest entry survived past the bound")
	}
	if c.Peek(keyOf(2)) == nil || c.Peek(keyOf(3)) == nil {
		t.Fatal("recent entries evicted")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats %+v, want 2 entries / 1 eviction", st)
	}
	// A hit refreshes recency: touch 2, insert 4, expect 3 out.
	if _, out, _ := c.GetOrSynth(keyOf(2), nil); out != Hit {
		t.Fatalf("lookup outcome %v, want hit", out)
	}
	c.Warm(fakeEntry(keyOf(4), []byte{4}, 1e-4))
	if c.Peek(keyOf(2)) == nil {
		t.Fatal("recently hit entry evicted")
	}
	if c.Peek(keyOf(3)) != nil {
		t.Fatal("LRU entry survived")
	}
}

func TestCacheByteAccounting(t *testing.T) {
	c := NewCache(1, 1, nil)
	c.Warm(fakeEntry(keyOf(1), make([]byte, 100), 1e-4))
	if got := c.Stats().Bytes; got != 100+entryOverheadBytes {
		t.Fatalf("bytes %d, want %d", got, 100+entryOverheadBytes)
	}
	c.Warm(fakeEntry(keyOf(2), make([]byte, 40), 1e-4))
	if got := c.Stats().Bytes; got != 40+entryOverheadBytes {
		t.Fatalf("bytes %d after eviction, want %d", got, 40+entryOverheadBytes)
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := NewCache(16, 1, nil)
	const callers = 8
	var synths int
	gate := make(chan struct{})
	var wg sync.WaitGroup
	outcomes := make([]Outcome, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, out, err := c.GetOrSynth(keyOf(9), func() (*Entry, error) {
				synths++ // only one caller may ever run this
				<-gate
				return fakeEntry(keyOf(9), []byte{9}, 1e-4), nil
			})
			if err != nil || e == nil {
				t.Errorf("caller %d: %v", i, err)
			}
			outcomes[i] = out
		}(i)
	}
	// Let every caller either start the flight or pile up behind it,
	// then release the one synthesis.
	for c.Stats().Misses+c.Stats().Coalesced+c.Stats().Hits < callers {
	}
	close(gate)
	wg.Wait()
	if synths != 1 {
		t.Fatalf("%d syntheses for one key, want 1", synths)
	}
	var miss, coalesced int
	for _, out := range outcomes {
		switch out {
		case Miss:
			miss++
		case Coalesced:
			coalesced++
		}
	}
	if miss != 1 || coalesced != callers-1 {
		t.Fatalf("outcomes: %d miss / %d coalesced, want 1/%d", miss, coalesced, callers-1)
	}
	st := c.Stats()
	if got := st.HitRate(); got != float64(callers-1)/float64(callers) {
		t.Fatalf("hit rate %g", got)
	}
}

func TestCacheFailedSynthNotCached(t *testing.T) {
	c := NewCache(16, 1, nil)
	boom := errors.New("boom")
	if _, _, err := c.GetOrSynth(keyOf(5), func() (*Entry, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err %v, want boom", err)
	}
	if c.Peek(keyOf(5)) != nil {
		t.Fatal("failed synthesis left a resident entry")
	}
	// The next caller retries rather than inheriting the failure.
	e, out, err := c.GetOrSynth(keyOf(5), func() (*Entry, error) {
		return fakeEntry(keyOf(5), []byte{5}, 1e-4), nil
	})
	if err != nil || e == nil || out != Miss {
		t.Fatalf("retry: entry %v outcome %v err %v", e, out, err)
	}
}

// newTestFleet builds a small fleet. Registrations in these tests hit
// Warm-primed cache entries, so no real synthesis runs.
func newTestFleet(t *testing.T, cfg Config) *Fleet {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Shutdown(context.Background()) })
	return f
}

// warm primes the fleet cache for a registration routed to ap/channel
// defaults, returning the registration ready to submit.
func warm(f *Fleet, id string, ap int, payload byte, airtimeSeconds float64, intervalSlots uint64) Registration {
	reg := Registration{
		ID: id, AP: ap,
		AD:            []byte{2, 0x01, payload},
		Addr:          BDAddr{0xc0, 0xff, 0xee, 0, 0, payload},
		IntervalSlots: intervalSlots,
	}
	k := DeriveKey(Params{
		AD:          reg.AD,
		Addr:        [6]byte(reg.Addr),
		Chip:        int(f.cfg.Synth.Chip),
		Mode:        int(f.cfg.Synth.Mode),
		WiFiChannel: f.cfg.ChannelsPerAP[0],
		BLEChannel:  38,
	})
	f.cache.Warm(fakeEntry(k, []byte{payload}, airtimeSeconds))
	return reg
}

func TestFleetRegisterExpireLifecycle(t *testing.T) {
	f := newTestFleet(t, Config{APs: 2})
	regs := []Registration{
		warm(f, "a", 0, 1, 100e-6, 16000),
		warm(f, "b", 0, 2, 100e-6, 16000),
		warm(f, "c", 1, 1, 100e-6, 16000), // same payload as "a": same key
	}
	res := f.Register(regs)
	for i, r := range res {
		if !r.OK() {
			t.Fatalf("register %d: %s", i, r.Error)
		}
		if r.CacheOutcome != "hit" {
			t.Fatalf("register %d outcome %q, want hit (warmed)", i, r.CacheOutcome)
		}
	}
	if res[0].Slot != 0 || res[1].Slot != 1 || res[2].Slot != 0 {
		t.Fatalf("slots %d,%d,%d want 0,1,0", res[0].Slot, res[1].Slot, res[2].Slot)
	}
	snap := f.Snapshot()
	if snap.Beacons != 3 {
		t.Fatalf("snapshot beacons %d, want 3", snap.Beacons)
	}
	// Duplicate ID on the same shard is refused; same ID on another AP
	// is a different beacon.
	dup := f.Register([]Registration{warm(f, "a", 0, 3, 100e-6, 16000)})
	if dup[0].OK() || !strings.Contains(dup[0].Error, "already registered") {
		t.Fatalf("duplicate register: %+v", dup[0])
	}
	if r := f.Register([]Registration{warm(f, "a", 1, 3, 100e-6, 16000)}); !r[0].OK() {
		t.Fatalf("same ID on another AP refused: %s", r[0].Error)
	}

	exp := f.Expire([]BeaconRef{{ID: "b", AP: 0}, {ID: "nope", AP: 0}})
	if !exp[0].OK() {
		t.Fatalf("expire b: %s", exp[0].Error)
	}
	if exp[1].OK() || !strings.Contains(exp[1].Error, "not registered") {
		t.Fatalf("expiring unknown beacon: %+v", exp[1])
	}
	// The freed budget and ID are reusable; the slot cursor does not
	// rewind (admission order stays monotonic).
	re := f.Register([]Registration{warm(f, "b", 0, 4, 100e-6, 16000)})
	if !re[0].OK() || re[0].Slot != 2 {
		t.Fatalf("re-register: %+v, want slot 2", re[0])
	}
}

func TestFleetBudgetRefusal(t *testing.T) {
	// Each beacon takes duty = 625µs/(32 slots × 625µs) = 1/32 of the
	// carrier; a cap of 1.5/32 admits exactly one.
	f := newTestFleet(t, Config{APs: 2, APAirtimeCap: 1.5 / 32})
	res := f.Register([]Registration{
		warm(f, "fits", 0, 1, SlotSeconds, 32),
		warm(f, "over", 0, 2, SlotSeconds, 32),
		warm(f, "other-ap", 1, 3, SlotSeconds, 32),
	})
	if !res[0].OK() {
		t.Fatalf("first beacon refused: %s", res[0].Error)
	}
	if res[1].OK() || !strings.Contains(res[1].Error, "budget") {
		t.Fatalf("over-budget beacon admitted: %+v", res[1])
	}
	if !res[2].OK() {
		t.Fatalf("budgets bled across APs: %s", res[2].Error)
	}
	snap := f.Snapshot()
	if snap.Beacons != 2 {
		t.Fatalf("beacons %d, want 2", snap.Beacons)
	}
	// A failed admission must not hold airtime.
	if used := snap.Shards[0].AirtimeUsed; used > 1.0/32+1e-12 {
		t.Fatalf("AP 0 airtime used %g after refusal, want 1/32", used)
	}
	// Expiry frees the budget for the refused beacon.
	f.Expire([]BeaconRef{{ID: "fits", AP: 0}})
	if r := f.Register([]Registration{warm(f, "over", 0, 2, SlotSeconds, 32)}); !r[0].OK() {
		t.Fatalf("budget not returned on expire: %s", r[0].Error)
	}
}

func TestFleetUpdate(t *testing.T) {
	f := newTestFleet(t, Config{APs: 1, APAirtimeCap: 3.0 / 32})
	if r := f.Register([]Registration{warm(f, "a", 0, 1, SlotSeconds, 32)}); !r[0].OK() {
		t.Fatal(r[0].Error)
	}
	// Updating an unregistered ID fails.
	if r := f.Update([]Registration{warm(f, "ghost", 0, 9, SlotSeconds, 32)}); r[0].OK() {
		t.Fatal("update of unregistered beacon succeeded")
	}
	// A payload update keeps the emission slot and swaps the budget
	// atomically: 1/32 → 2/32 fits only because the old share releases.
	up := warm(f, "a", 0, 2, 2*SlotSeconds, 32)
	r := f.Update([]Registration{up})
	if !r[0].OK() {
		t.Fatalf("update: %s", r[0].Error)
	}
	if r[0].Slot != 0 {
		t.Fatalf("update moved the slot to %d", r[0].Slot)
	}
	snap := f.Snapshot()
	if used := snap.Shards[0].AirtimeUsed; used < 2.0/32-1e-12 || used > 2.0/32+1e-12 {
		t.Fatalf("airtime used %g after update, want 2/32", used)
	}
	// An update past the cap is refused and the old reservation stays.
	over := warm(f, "a", 0, 3, 4*SlotSeconds, 32)
	if r := f.Update([]Registration{over}); r[0].OK() {
		t.Fatal("over-budget update admitted")
	}
	if used := f.Snapshot().Shards[0].AirtimeUsed; used > 2.0/32+1e-12 {
		t.Fatalf("failed update leaked airtime: %g", used)
	}
}

func TestFleetValidation(t *testing.T) {
	f := newTestFleet(t, Config{APs: 1})
	cases := []struct {
		name string
		reg  Registration
		want string
	}{
		{"empty id", Registration{AP: 0, AD: []byte{1, 2}}, "empty beacon ID"},
		{"oversize ad", Registration{ID: "x", AD: make([]byte, 32)}, "exceed 31"},
		{"bad ble channel", Registration{ID: "x", AD: []byte{1}, BLEChannel: 36}, "out of range"},
		{"interval floor", Registration{ID: "x", AD: []byte{1}, IntervalSlots: 1}, "slot floor"},
		{"bad ap", Registration{ID: "x", AP: 7, AD: []byte{1}}, "out of range"},
		{"bad channel", Registration{ID: "x", WiFiChannel: 9, AD: []byte{1}}, "not served"},
	}
	for _, tc := range cases {
		res := f.Register([]Registration{tc.reg})
		if res[0].OK() || !strings.Contains(res[0].Error, tc.want) {
			t.Errorf("%s: result %+v, want error containing %q", tc.name, res[0], tc.want)
		}
	}
	if got := f.Snapshot().Beacons; got != 0 {
		t.Fatalf("%d beacons admitted by invalid registrations", got)
	}
}

// TestFleetShutdownRefusesOperations: after Shutdown no operation
// succeeds and no goroutine the fleet started is left running. Two APs
// make the bulk Register run AP 0's share on its own goroutine.
func TestFleetShutdownRefusesOperations(t *testing.T) {
	noLeak := leaktest.Check(t)
	f := newTestFleet(t, Config{APs: 2})
	regs := []Registration{warm(f, "a", 0, 1, 100e-6, 16000), warm(f, "c", 1, 3, 100e-6, 16000)}
	for _, r := range f.Register(regs) {
		if !r.OK() {
			t.Fatal(r.Error)
		}
	}
	if err := f.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	noLeak()
	// Idempotent.
	if err := f.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if r := f.Register([]Registration{warm(f, "b", 0, 2, 100e-6, 16000)}); r[0].OK() ||
		!strings.Contains(r[0].Error, "shut down") {
		t.Fatalf("register after shutdown: %+v", r[0])
	}
	if r := f.Expire([]BeaconRef{{ID: "a", AP: 0}}); r[0].OK() {
		t.Fatal("expire after shutdown succeeded")
	}
}

func TestFleetDigestsTrackState(t *testing.T) {
	f := newTestFleet(t, Config{APs: 1})
	d0 := f.ScheduleDigest()
	if r := f.Register([]Registration{warm(f, "a", 0, 1, 100e-6, 16000)}); !r[0].OK() {
		t.Fatal(r[0].Error)
	}
	d1 := f.ScheduleDigest()
	if d0 == d1 {
		t.Fatal("schedule digest blind to a registration")
	}
	if f.CacheDigest() == "" || f.ScheduleDigest() != d1 {
		t.Fatal("digests unstable across idempotent reads")
	}
	f.Expire([]BeaconRef{{ID: "a", AP: 0}})
	if f.ScheduleDigest() == d1 {
		t.Fatal("schedule digest blind to an expiry")
	}
}

func TestBDAddrJSON(t *testing.T) {
	a := BDAddr{0xaa, 0xbb, 0xcc, 0x01, 0x02, 0x03}
	b, err := json.Marshal(a)
	if err != nil || string(b) != `"aa:bb:cc:01:02:03"` {
		t.Fatalf("marshal: %s, %v", b, err)
	}
	var back BDAddr
	if err := json.Unmarshal(b, &back); err != nil || back != a {
		t.Fatalf("round trip: %v, %v", back, err)
	}
	for _, bad := range []string{`"aa:bb:cc"`, `"zz:bb:cc:01:02:03"`, `"aabb:cc:01:02:03:04"`, `17`} {
		if err := json.Unmarshal([]byte(bad), &back); err == nil {
			t.Errorf("parsed invalid address %s", bad)
		}
	}
}

func TestHTTPPlane(t *testing.T) {
	f := newTestFleet(t, Config{APs: 1})
	reg := warm(f, "web", 0, 1, 100e-6, 16000)
	srv := httptest.NewServer(Handler(f))
	defer srv.Close()

	body, _ := json.Marshal(RegisterRequest{Beacons: []Registration{reg}})
	resp, err := http.Post(srv.URL+"/fleet/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var bulk BulkResponse
	if err := json.NewDecoder(resp.Body).Decode(&bulk); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if bulk.OK != 1 || bulk.Failed != 0 || !bulk.Results[0].OK() {
		t.Fatalf("register response %+v", bulk)
	}

	resp, err = http.Get(srv.URL + "/fleet/stats")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Beacons != 1 || len(snap.Shards) != 1 {
		t.Fatalf("stats %+v", snap)
	}

	body, _ = json.Marshal(ExpireRequest{Beacons: []BeaconRef{{ID: "web", AP: 0}}})
	resp, err = http.Post(srv.URL+"/fleet/expire", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := f.Snapshot().Beacons; got != 0 {
		t.Fatalf("beacons after expire: %d", got)
	}

	// Malformed bodies and wrong methods are rejected.
	resp, _ = http.Post(srv.URL+"/fleet/register", "application/json",
		strings.NewReader(`{"beacons":[{"addr":"not-an-addr"}]}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad addr status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Get(srv.URL + "/fleet/register")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET register status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Post(srv.URL+"/fleet/stats", "application/json", strings.NewReader("{}"))
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST stats status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestShardCompaction(t *testing.T) {
	f := newTestFleet(t, Config{APs: 1, APAirtimeCap: 1})
	const n = 1500
	regs := make([]Registration, 0, n)
	for i := 0; i < n; i++ {
		regs = append(regs, warm(f, fmt.Sprintf("b%04d", i), 0, byte(i%7), 1e-6, 160000))
	}
	for _, r := range f.Register(regs) {
		if !r.OK() {
			t.Fatal(r.Error)
		}
	}
	refs := make([]BeaconRef, 0, n*3/4)
	for i := 0; i < n*3/4; i++ {
		refs = append(refs, BeaconRef{ID: fmt.Sprintf("b%04d", i), AP: 0})
	}
	for _, r := range f.Expire(refs) {
		if !r.OK() {
			t.Fatal(r.Error)
		}
	}
	sh := f.Shards()[0]
	sh.mu.Lock()
	slots := len(sh.beacons)
	holes := sh.holes
	sh.mu.Unlock()
	if slots-holes != n/4 {
		t.Fatalf("after mass expiry: %d slots − %d holes ≠ %d live", slots, holes, n/4)
	}
	if slots == n {
		t.Fatalf("slice still %d long — compaction never ran", slots)
	}
	// Survivors must still resolve and keep their original slots.
	res := f.Expire([]BeaconRef{{ID: fmt.Sprintf("b%04d", n-1), AP: 0}})
	if !res[0].OK() || res[0].Slot != n-1 {
		t.Fatalf("post-compaction expire: %+v, want slot %d", res[0], n-1)
	}
}

// TestStatsRaceWithRegister: /fleet/stats (Snapshot) runs concurrently
// with bulk registers, updates and expiries. Under -race this is the
// satellite check that per-shard queue depth and budget headroom reads
// don't tear against admission writes.
func TestStatsRaceWithRegister(t *testing.T) {
	f := newTestFleet(t, Config{APs: 4})
	srv := httptest.NewServer(Handler(f))
	defer srv.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := srv.Client().Get(srv.URL + "/fleet/stats")
			if err != nil {
				t.Error(err)
				return
			}
			var snap Snapshot
			if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
				t.Error(err)
			}
			resp.Body.Close()
			for _, sh := range snap.Shards {
				if sh.QueueDepth < 0 || sh.BudgetHeadroom < 0 || sh.BudgetHeadroom > sh.AirtimeCap {
					t.Errorf("implausible shard stats: %+v", sh)
				}
			}
		}
	}()
	for batch := 0; batch < 20; batch++ {
		regs := make([]Registration, 0, 8)
		for i := 0; i < 8; i++ {
			regs = append(regs, warm(f, fmt.Sprintf("b%d-%d", batch, i), i%4, byte(batch), 100e-6, 16000))
		}
		if res := f.Register(regs); !res[0].OK() {
			t.Fatalf("register: %s", res[0].Error)
		}
		refs := make([]BeaconRef, 0, 4)
		for i := 0; i < 4; i++ {
			refs = append(refs, BeaconRef{ID: fmt.Sprintf("b%d-%d", batch, i), AP: i % 4})
		}
		f.Expire(refs)
	}
	close(stop)
	wg.Wait()
}

// TestSketchesTrackAdmissions: the fleet's heavy-hitter and latency
// sketches fill from register traffic and surface in Snapshot.
func TestSketchesTrackAdmissions(t *testing.T) {
	f := newTestFleet(t, Config{APs: 2})
	// One hot payload registered on many beacons of AP 0, a few cold.
	regs := make([]Registration, 0, 40)
	for i := 0; i < 32; i++ {
		regs = append(regs, warm(f, fmt.Sprintf("hot%d", i), 0, 1, 100e-6, 16000))
	}
	for i := 0; i < 8; i++ {
		regs = append(regs, warm(f, fmt.Sprintf("cold%d", i), 1, byte(10+i), 100e-6, 16000))
	}
	for _, r := range f.Register(regs) {
		if !r.OK() {
			t.Fatalf("register: %s", r.Error)
		}
	}
	sk := f.Sketches()
	if len(sk.HotKeys) == 0 || len(sk.HotShards) == 0 {
		t.Fatalf("sketches empty: %+v", sk)
	}
	if len(sk.HotKeys) > sketchTopK || len(sk.HotShards) > sketchTopK {
		t.Fatalf("snapshot lists %d keys / %d shards, past the top %d", len(sk.HotKeys), len(sk.HotShards), sketchTopK)
	}
	hotKey := DeriveKey(Params{
		AD:   []byte{2, 0x01, 1},
		Addr: [6]byte{0xc0, 0xff, 0xee, 0, 0, 1},
		Chip: int(f.cfg.Synth.Chip), Mode: int(f.cfg.Synth.Mode),
		WiFiChannel: f.cfg.ChannelsPerAP[0], BLEChannel: 38,
	})
	if sk.HotKeys[0].Key != hotKey.String() || sk.HotKeys[0].Count < 32 {
		t.Fatalf("top key = %+v, want the hot payload with count ≥ 32", sk.HotKeys[0])
	}
	if sk.HotShards[0].Key != "ap0/ch3" || sk.HotShards[0].Count < 32 {
		t.Fatalf("top shard = %+v, want ap0/ch3 ≥ 32", sk.HotShards[0])
	}
	if sk.SlotLatency.N != 40 || sk.SlotLatency.P99 <= 0 {
		t.Fatalf("latency summary = %+v, want N=40 with positive p99", sk.SlotLatency)
	}
	if f.SlotLatencyP99() <= 0 {
		t.Fatal("SlotLatencyP99 must be positive after admissions")
	}
}

// TestSLOSpecs: without telemetry there are no specs; with it, the
// indicators track the fleet counters.
func TestSLOSpecs(t *testing.T) {
	f := newTestFleet(t, Config{APs: 1})
	if specs := f.SLOSpecs(); specs != nil {
		t.Fatalf("SLOSpecs without telemetry = %d, want nil", len(specs))
	}

	cfg := Config{APs: 1}
	cfg.Synth.Telemetry = obs.NewRegistry()
	ft := newTestFleet(t, cfg)
	specs := ft.SLOSpecs()
	if len(specs) != 3 {
		t.Fatalf("SLOSpecs = %d, want 3", len(specs))
	}
	if res := ft.Register([]Registration{warm(ft, "x", 0, 1, 100e-6, 16000)}); !res[0].OK() {
		t.Fatalf("register: %s", res[0].Error)
	}
	for _, spec := range specs {
		good, total := spec.Indicator()
		if total <= 0 || good < 0 || good > total {
			t.Errorf("%s indicator = (%g, %g), want 0 ≤ good ≤ total with traffic", spec.Name, good, total)
		}
	}
}
