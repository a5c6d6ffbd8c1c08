// Fleet-engine benchmarks: the published bench trajectory behind
// BENCH_10.json (`make bench-json`). Each size runs the event engine on a
// full timeline and the legacy per-tick loop baseline on a truncated one
// (the loop at full horizon would take minutes — that is the point), and
// reports ns per simulated tick so the two are directly comparable at
// every scale. One scanned row, an httpd fleet at the sealed level scanned
// every tick, keeps the incremental rescan on the trajectory (the other
// rows run with scanning off). The 1M-connection timeline is the memory headline: peak
// heap stays O(machines + open connections) because per-event costs
// replace per-open-connection-per-tick costs and the statistics stream
// instead of materializing.
package memshield

import (
	"flag"
	"testing"

	"memshield/internal/fleet"
	"memshield/internal/protect"
)

// fleet1M opts the ~5-minute million-connection timeline into a bench
// run: go test -bench FleetTimeline1M -fleet-1m -benchtime=1x .
var fleet1M = flag.Bool("fleet-1m", false, "run the 1M-connection fleet timeline benchmark")

// benchFleet runs one fleet config per iteration and reports the
// trajectory metrics.
func benchFleet(b *testing.B, cfg fleet.Config, run func(fleet.Config) (*fleet.Result, error)) {
	b.Helper()
	var last *fleet.Result
	for i := 0; i < b.N; i++ {
		res, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Errors > 0 {
			b.Fatalf("%d connection errors", res.Errors)
		}
		last = res
	}
	ticks := float64(cfg.Horizon) * float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/ticks, "ns/simtick")
	b.ReportMetric(float64(last.Arrivals), "conns")
	b.ReportMetric(float64(last.PeakOpen), "peak-open")
	if last.PeakHeapBytes > 0 {
		b.ReportMetric(float64(last.PeakHeapBytes)/(1<<20), "peak-heap-MB")
	}
}

// fleetBenchConfig is the shared trajectory shape: total connections over
// a 1000-tick horizon, machine count scaling with size.
func fleetBenchConfig(conns int64, machines int) fleet.Config {
	return fleet.Sized(conns, machines, 1000, protect.LevelIntegrated, 2007)
}

func BenchmarkFleetEvent10k(b *testing.B) {
	benchFleet(b, fleetBenchConfig(10_000, 4), fleet.Run)
}

func BenchmarkFleetEvent100k(b *testing.B) {
	benchFleet(b, fleetBenchConfig(100_000, 16), fleet.Run)
}

// BenchmarkFleetEventSealedScan10k is the scanned row of the trajectory:
// an httpd prefork fleet at the sealed level with every machine scanned
// for all four tenants' keys at every tick, so the incremental rescan and
// the unseal→op→reseal windows are on the measured path. Every window
// must show zero key copies.
func BenchmarkFleetEventSealedScan10k(b *testing.B) {
	cfg := fleet.Sized(10_000, 4, 1000, protect.LevelSealed, 2007)
	cfg.Kind = fleet.KindHTTPD
	cfg.Tenants = 4
	cfg.SampleEvery = 1
	benchFleet(b, cfg, func(cfg fleet.Config) (*fleet.Result, error) {
		res, err := fleet.Run(cfg)
		if err == nil && res.Copies.StreamMax() != 0 {
			b.Fatalf("sealed fleet window showed %v key copies, want 0", res.Copies.StreamMax())
		}
		return res, err
	})
}

// BenchmarkFleetLoop10k / 100k run the per-tick loop baseline on
// truncated horizons: ns/simtick is horizon-independent for the loop
// (every open connection is recycled every tick), so a short run measures
// the same per-tick cost the full horizon would — without the minutes.
func BenchmarkFleetLoop10k(b *testing.B) {
	cfg := fleetBenchConfig(10_000, 4)
	cfg.Horizon = 200
	benchFleet(b, cfg, fleet.RunLoop)
}

func BenchmarkFleetLoop100k(b *testing.B) {
	cfg := fleetBenchConfig(100_000, 16)
	cfg.Horizon = 40
	benchFleet(b, cfg, fleet.RunLoop)
}

// BenchmarkFleetTimeline1M is the headline: one million connections
// across 64 machines, with peak live heap measured. Opt-in (-fleet-1m)
// because a full run takes minutes on one core.
func BenchmarkFleetTimeline1M(b *testing.B) {
	if !*fleet1M {
		b.Skip("pass -fleet-1m to run the million-connection timeline")
	}
	cfg := fleetBenchConfig(1_000_000, 64)
	cfg.MeasureMem = true
	benchFleet(b, cfg, fleet.Run)
}
