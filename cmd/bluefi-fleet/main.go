// Command bluefi-fleet is the beacon-CDN daemon: N simulated APs
// serving registered beacons as BlueFi PSDUs, sharded by (AP, WiFi
// channel), with a content-addressed PSDU cache de-duplicating
// synthesis across the fleet and per-AP airtime budgets bounding
// admission.
//
//	bluefi-fleet -addr :8400 -aps 64
//	curl -d '{"beacons":[{"id":"door-7","ap":3,"ad":"AgEG",
//	          "addr":"c0:ff:ee:00:00:07"}]}' localhost:8400/fleet/register
//	curl localhost:8400/fleet/stats
//	curl localhost:8400/metrics          # bluefi_fleet_* rollups
//	curl localhost:8400/debug/slo        # burn rates and alert states
//	curl localhost:8400/debug/flight/    # recent flight-recorder events
//	curl -X POST localhost:8400/debug/flight/dump   # on-demand bundle
//
// The daemon evaluates the fleet's canonical SLOs (registration
// latency, cache hit rate, admission success) on a wall-clock tick and
// keeps a black-box flight recorder attached to the registry's event
// stream. The moment any SLO pages, a diagnostic bundle — events,
// metrics, traces, goroutine and heap profiles — lands under
// -flight-dir.
//
// SIGINT/SIGTERM drains the shards gracefully: in-flight syntheses
// finish (up to -drain-timeout), new operations are refused.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bluefi"
	"bluefi/internal/fleet"
	"bluefi/internal/obs/flight"
	"bluefi/internal/obs/slo"
)

// options carries the parsed flags into run.
type options struct {
	addr         string
	aps          int
	channels     string
	workers      int
	cacheEntries int
	budget       float64
	quality      bool
	drainTimeout time.Duration
	sloInterval  time.Duration
	flightDir    string
	flightEvents int
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8400", "listen address for the control plane and telemetry")
	flag.IntVar(&o.aps, "aps", 64, "simulated access points")
	flag.StringVar(&o.channels, "channels", "3", "comma-separated WiFi channels per AP (one shard each)")
	flag.IntVar(&o.workers, "workers", 1, "synthesis workers per shard")
	flag.IntVar(&o.cacheEntries, "cache", 4096, "PSDU cache bound in entries")
	flag.Float64Var(&o.budget, "budget", 0.02, "per-AP beacon airtime budget (fraction of the carrier)")
	flag.BoolVar(&o.quality, "quality", false, "synthesize in Quality mode (default RealTime)")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "graceful shutdown bound")
	flag.DurationVar(&o.sloInterval, "slo-interval", time.Second, "SLO burn-rate evaluation tick")
	flag.StringVar(&o.flightDir, "flight-dir", "flight", "directory for flight-recorder bundles (dumped on SLO page or POST /debug/flight/dump)")
	flag.IntVar(&o.flightEvents, "flight-events", 4096, "flight-recorder event ring bound")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "bluefi-fleet: %v\n", err)
		os.Exit(1)
	}
}

func run(o options) error {
	addr, aps, channels := o.addr, o.aps, o.channels
	workers, cacheEntries, budget := o.workers, o.cacheEntries, o.budget
	quality, drainTimeout := o.quality, o.drainTimeout
	var chs []int
	for _, part := range strings.Split(channels, ",") {
		ch, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return fmt.Errorf("bad -channels %q: %w", channels, err)
		}
		chs = append(chs, ch)
	}
	mode := bluefi.RealTime
	if quality {
		mode = bluefi.Quality
	}
	reg := bluefi.NewTelemetry()
	f, err := fleet.New(fleet.Config{
		APs:           aps,
		ChannelsPerAP: chs,
		ShardWorkers:  workers,
		CacheEntries:  cacheEntries,
		APAirtimeCap:  budget,
		Synth:         bluefi.Options{Mode: mode, Telemetry: reg},
	})
	if err != nil {
		return err
	}

	// Observability plane: flight recorder on the registry's event
	// stream, SLO engine over the fleet's canonical objectives, and a
	// page→bundle hook so the black box is written the moment an SLO
	// trips — not when an operator remembers to ask.
	rec := flight.New(reg, o.flightEvents)
	rec.Attach(reg)
	eng := slo.NewEngine(reg)
	for _, spec := range f.SLOSpecs() {
		eng.Add(spec)
	}
	eng.OnPage(func(ep slo.Episode) {
		bundle, err := rec.Dump(o.flightDir, reg, "slo-page:"+ep.SLO)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bluefi-fleet: flight dump: %v\n", err)
			return
		}
		fmt.Fprintf(os.Stderr, "bluefi-fleet: SLO %s paged (peak burn %.1f) — flight bundle %s\n",
			ep.SLO, ep.PeakBurn, bundle)
	})
	ctx, stopSLO := context.WithCancel(context.Background())
	defer stopSLO()
	eng.Start(ctx, o.sloInterval)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.Handle("/", reg.Handler())
	mux.Handle("/fleet/", fleet.Handler(f))
	mux.Handle("/debug/slo", eng.Handler())
	mux.Handle("/debug/flight/", http.StripPrefix("/debug/flight", rec.Handler(reg, o.flightDir)))
	srv := &http.Server{Handler: mux}

	fmt.Fprintf(os.Stderr, "bluefi-fleet: %d APs × %d channels (%d shards) on http://%s/fleet, telemetry on /metrics\n",
		aps, len(chs), len(f.Shards()), ln.Addr())

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	// Signal-driven graceful shutdown; exits with the process after the drain completes.
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "bluefi-fleet: draining shards...")
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := f.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "bluefi-fleet: drain: %v\n", err)
		}
		_ = srv.Shutdown(ctx)
	}()

	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	fmt.Fprintln(os.Stderr, "bluefi-fleet: drained, bye")
	return nil
}
