package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"time"

	"bluefi"
	"bluefi/internal/obs/flight"
	"bluefi/internal/obs/slo"
)

// serveWorkers is the -serve workload's pool size.
const serveWorkers = 2

// runServe exposes the telemetry endpoints (/metrics, /metrics.json,
// /traces — plus /health, the audio stream's degradation state and
// report, /debug/slo and /debug/flight) while a continuous synthesis
// workload exercises every instrumented path: pooled beacon/BR batches
// plus an A2DP audio stream. It is the live counterpart of the figure
// runs — point a Prometheus scraper (or curl) at it and watch the
// stage histograms fill.
//
// bluefi_eval_core_timings_nanoseconds_total accumulates
// Packet.Timings().Total() across the workload; the histogram sums of
// the four §4.8 stages in bluefi_core_stage_seconds (iqgen, fftqam, fec,
// scramble — not the histogram-only precomp and rehearse) must stay
// within ±5% of it — the consistency contract between the span-fed
// histograms and the absorbed Timings plumbing.
func runServe(addr, flightDir string) error {
	reg := bluefi.NewTelemetry()
	timingsNS := reg.Counter("bluefi_eval_core_timings_nanoseconds_total",
		"sum of Packet.Timings().Total() over the serve workload")

	pool, err := bluefi.NewPool(bluefi.Options{Mode: bluefi.RealTime, Telemetry: reg}, serveWorkers)
	if err != nil {
		return err
	}
	defer pool.Close()

	stream, err := pool.NewAudioStream(bluefi.AudioConfig{
		Device:          bluefi.Device{LAP: 0xb10ef1, UAP: 0x42},
		PacketType:      bluefi.DM1,
		SBC:             bluefi.SBCConfig{SampleRateHz: 16000, Blocks: 4, Subbands: 4, Bitpool: 8},
		FramesPerPacket: 1,
		Degrade:         &bluefi.DegradePolicy{},
	})
	if err != nil {
		return err
	}

	// Flight recorder + SLO engine over the stream's own accounting:
	// delivery (shipped vs dropped frames) and healthy airtime (625 µs
	// slots spent outside degradation). A Page dumps a bundle.
	rec := flight.New(reg, 0)
	rec.Attach(reg)
	eng := slo.NewEngine(reg)
	for _, spec := range audioSLOSpecs(stream) {
		eng.Add(spec)
	}
	eng.OnPage(func(ep slo.Episode) {
		bundle, err := rec.Dump(flightDir, reg, "slo-page:"+ep.SLO)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bluefi-eval: flight dump: %v\n", err)
			return
		}
		fmt.Fprintf(os.Stderr, "bluefi-eval: SLO %s paged (peak burn %.1f) — flight bundle %s\n",
			ep.SLO, ep.PeakBurn, bundle)
	})
	ctx, stopSLO := context.WithCancel(context.Background())
	defer stopSLO()
	eng.Start(ctx, time.Second)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bluefi-eval: serving telemetry on http://%s/metrics (Ctrl-C to stop)\n",
		ln.Addr())

	mux := http.NewServeMux()
	mux.Handle("/", reg.Handler())
	mux.Handle("/debug/slo", eng.Handler())
	mux.Handle("/debug/flight/", http.StripPrefix("/debug/flight", rec.Handler(reg, flightDir)))
	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(struct {
			State  string                   `json:"state"`
			Report bluefi.DegradationReport `json:"report"`
		}{stream.Health().String(), stream.Report()})
	})

	//bluefi:goroutine live-workload generator behind -serve; runs for the process lifetime and dies with it
	go serveWorkload(pool, stream, timingsNS)
	return http.Serve(ln, mux)
}

// serveWorkload loops forever: one mixed pooled batch plus one audio
// Send per round, recording each packet's absorbed Timings total.
func serveWorkload(pool *bluefi.Pool, stream *bluefi.AudioStream, timingsNS *bluefi.TelemetryCounter) {
	pcm := make([][]float64, stream.Channels())
	for round := 0; ; round++ {
		ib := bluefi.IBeacon{Major: uint16(round)}
		jobs := []bluefi.BatchJob{
			{Beacon: &bluefi.BeaconJob{ADStructures: ib.ADStructures(), Addr: [6]byte{0xb1, 0x0e, 0xf1, 0, 0, 1}, BLEChannel: 38}},
			{BR: &bluefi.BRJob{
				Device:    bluefi.Device{LAP: 0xb10ef1, UAP: 0x42},
				Packet:    &bluefi.BasebandPacket{Type: bluefi.DM1, LTAddr: 1, Payload: []byte("bluefi"), Clock: uint32(4 * round)},
				BTChannel: 24,
			}},
		}
		for _, res := range pool.SynthesizeBatch(jobs) {
			if res.Err == nil {
				timingsNS.Add(res.Packet.Timings().Total().Nanoseconds())
			}
		}
		for ch := range pcm {
			pcm[ch] = tonePCM(stream.SamplesPerSend(), round*stream.SamplesPerSend())
		}
		if txs, err := stream.Send(pcm); err == nil {
			for _, tx := range txs {
				timingsNS.Add(tx.Packet.Timings().Total().Nanoseconds())
			}
		}
	}
}

// tonePCM generates one send's worth of a 440 Hz-ish test tone.
func tonePCM(samples, offset int) []float64 {
	out := make([]float64, samples)
	for i := range out {
		out[i] = 0.5 * math.Sin(2*math.Pi*float64(offset+i)/36.0)
	}
	return out
}
