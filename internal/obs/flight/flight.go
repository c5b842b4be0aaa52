// Package flight is the black-box flight recorder: a lock-sharded
// bounded ring of structured events that is always on and cheap, plus
// a bundle dumper that captures everything an on-call engineer needs
// the moment an SLO pages — recent events, the full metrics snapshot,
// the span trace ring, and goroutine + heap pprof profiles — into one
// directory.
//
// The recorder implements obs.EventSink, so instrumentation sites
// record through the registry (reg.Event("pool.retry", ...)) and pay a
// single atomic load when no recorder is attached. Events land in one
// of several shards picked by a global sequence counter, so concurrent
// recorders contend on different locks; reads merge the shards by
// sequence number.
//
// This package intentionally reads the wall clock (event timestamps,
// bundle names) and is therefore not part of the determinism strict
// tier — nothing in the synthesis path depends on it.
package flight

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bluefi/internal/obs"
)

// Event is one recorded occurrence.
type Event struct {
	Seq   uint64      `json:"seq"`
	Time  time.Time   `json:"time"`
	Kind  string      `json:"kind"`
	Attrs []obs.Label `json:"attrs,omitempty"`
}

// shardCount is fixed: events hash by sequence, so any count spreads
// contention evenly; 8 keeps merge cost trivial.
const shardCount = 8

// defaultCapacity is the per-recorder event bound (all shards
// combined).
const defaultCapacity = 4096

// shard is one bounded event ring.
type shard struct {
	mu   sync.Mutex
	ring []Event // guarded by mu
	next int     // guarded by mu
}

// Recorder is the event sink plus bundle dumper. Safe for concurrent
// use.
type Recorder struct {
	seq    atomic.Uint64
	shards [shardCount]shard
	cap    int // per-shard ring capacity

	events  *obs.Counter
	dropped *obs.Counter
	dumps   *obs.Counter
	dumpErr *obs.Counter

	dumpMu sync.Mutex // serializes bundle writes
}

// New returns a recorder bounded to capacity events (default 4096,
// minimum shardCount) and registers its own bluefi_flight_* metrics on
// reg. It does NOT attach itself as reg's sink — call Attach, so
// tests can route events explicitly.
func New(reg *obs.Registry, capacity int) *Recorder {
	if capacity < shardCount {
		capacity = defaultCapacity
	}
	r := &Recorder{
		cap:     (capacity + shardCount - 1) / shardCount,
		events:  reg.Counter("bluefi_flight_events_total", "Events recorded into the flight ring."),
		dropped: reg.Counter("bluefi_flight_dropped_total", "Events overwritten in the bounded ring."),
		dumps:   reg.Counter("bluefi_flight_dumps_total", "Flight bundles written."),
		dumpErr: reg.Counter("bluefi_flight_dump_errors_total", "Flight bundle writes that failed."),
	}
	return r
}

// Attach installs the recorder as reg's event sink.
func (r *Recorder) Attach(reg *obs.Registry) { reg.SetEventSink(r) }

// RecordEvent implements obs.EventSink. Attrs are copied (sites may
// reuse storage).
func (r *Recorder) RecordEvent(kind string, attrs []obs.Label) {
	seq := r.seq.Add(1)
	ev := Event{Seq: seq, Time: time.Now().UTC(), Kind: kind} //bluefi:nondeterministic-ok event timestamps are the point; flight is outside the strict tier (package doc)
	if len(attrs) > 0 {
		ev.Attrs = append(make([]obs.Label, 0, len(attrs)), attrs...)
	}
	sh := &r.shards[seq%shardCount]
	sh.mu.Lock()
	if len(sh.ring) < r.cap {
		sh.ring = append(sh.ring, ev)
	} else {
		sh.ring[sh.next] = ev
		r.dropped.Inc()
	}
	sh.next = (sh.next + 1) % r.cap
	sh.mu.Unlock()
	r.events.Inc()
}

// Events returns the buffered events ordered by sequence (oldest
// first).
func (r *Recorder) Events() []Event {
	var out []Event
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		out = append(out, sh.ring...)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Len returns the number of buffered events.
func (r *Recorder) Len() int {
	n := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		n += len(sh.ring)
		sh.mu.Unlock()
	}
	return n
}

// Manifest indexes one dumped bundle.
type Manifest struct {
	Reason  string    `json:"reason"`
	Time    time.Time `json:"time"`
	Events  int       `json:"events"`
	Files   []string  `json:"files"`
	Version int       `json:"version"`
}

// Dump writes a diagnostic bundle into a fresh subdirectory of dir
// named flight-<unixnano>, returning its path. The bundle contains
// events.json, metrics.json (when reg != nil), traces.json, pprof
// goroutine.txt and heap.pprof, and manifest.json. Dumps serialize;
// a failed artifact is skipped, not fatal (the manifest lists what
// landed), but an unwritable dir is an error.
func (r *Recorder) Dump(dir string, reg *obs.Registry, reason string) (string, error) {
	r.dumpMu.Lock()
	defer r.dumpMu.Unlock()

	now := time.Now().UTC() //bluefi:nondeterministic-ok bundle names carry the wall-clock dump time; flight is outside the strict tier
	bundle := filepath.Join(dir, fmt.Sprintf("flight-%d", now.UnixNano()))
	if err := os.MkdirAll(bundle, 0o755); err != nil {
		r.dumpErr.Inc()
		return "", fmt.Errorf("flight: create bundle dir: %w", err)
	}

	events := r.Events()
	man := Manifest{Reason: reason, Time: now, Events: len(events), Version: 1}

	writeJSON := func(name string, v any) {
		f, err := os.Create(filepath.Join(bundle, name))
		if err != nil {
			r.dumpErr.Inc()
			return
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "\t")
		if err := enc.Encode(v); err != nil {
			r.dumpErr.Inc()
			f.Close()
			return
		}
		if err := f.Close(); err != nil {
			r.dumpErr.Inc()
			return
		}
		man.Files = append(man.Files, name)
	}

	writeJSON("events.json", events)
	if reg != nil {
		writeJSON("metrics.json", reg.Snapshot())
		writeJSON("traces.json", reg.RecentSpans())
	}

	if f, err := os.Create(filepath.Join(bundle, "goroutine.txt")); err == nil {
		if err := pprof.Lookup("goroutine").WriteTo(f, 1); err == nil {
			man.Files = append(man.Files, "goroutine.txt")
		} else {
			r.dumpErr.Inc()
		}
		f.Close()
	} else {
		r.dumpErr.Inc()
	}
	if f, err := os.Create(filepath.Join(bundle, "heap.pprof")); err == nil {
		if err := pprof.WriteHeapProfile(f); err == nil {
			man.Files = append(man.Files, "heap.pprof")
		} else {
			r.dumpErr.Inc()
		}
		f.Close()
	} else {
		r.dumpErr.Inc()
	}

	writeJSON("manifest.json", man)
	r.dumps.Inc()
	return bundle, nil
}

// Handler serves the recorder over HTTP:
//
//	GET  /        — buffered events as JSON
//	POST /dump    — write a bundle under dir, respond with its path
//
// Mounted at /debug/flight by the daemons.
func (r *Recorder) Handler(reg *obs.Registry, dir string) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "\t")
		_ = enc.Encode(r.Events())
	})
	mux.HandleFunc("/dump", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "method not allowed (POST)", http.StatusMethodNotAllowed)
			return
		}
		path, err := r.Dump(dir, reg, "on-demand")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = json.NewEncoder(w).Encode(map[string]string{"bundle": path})
	})
	return mux
}
