package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"memshield/internal/fleet"
	"memshield/internal/protect"
)

// Fleet sizing shared by both fleet workloads: 8 machines × 4 tenant keys,
// about 40k connection arrivals over 1000 virtual ticks — roughly ten host
// seconds per fleet.Run on a 2-CPU host, long enough that one iteration's
// throughput is steady.
const (
	fleetMachines = 8
	fleetTenants  = 4
	fleetConns    = 40000
	fleetHorizon  = 1000
	// setupReps is how many horizon-1 runs time set-up; the median is
	// reported.
	setupReps = 5
)

// fleetSpec is one fleet workload's configuration.
type fleetSpec struct {
	kind        fleet.Kind
	level       protect.Level
	sampleEvery uint64
	// copiesPerWindow is the exact scanner count every window must show:
	// d, p and q once per tenant at integrated, nothing at sealed.
	copiesPerWindow float64
}

var (
	// sshdIntegrated is the paper's recommended deployment at fleet
	// scale: per-connection fork/COW, the RSA-CRT handshake, 4 KiB
	// payload churn and zero-on-free dominate; sparse scan windows.
	sshdIntegrated = fleetSpec{fleet.KindSSHD, protect.LevelIntegrated, 100, 3 * fleetTenants}
	// httpdSealedScan reuses prefork workers, runs every private op in an
	// unseal→op→reseal window and rescans memory every tick.
	httpdSealedScan = fleetSpec{fleet.KindHTTPD, protect.LevelSealed, 1, 0}
)

// config returns the fleet.Config of the spec for a seed.
func (s fleetSpec) config(seed int64) fleet.Config {
	cfg := fleet.Sized(fleetConns, fleetMachines, fleetHorizon, s.level, seed)
	cfg.Kind = s.kind
	cfg.Tenants = fleetTenants
	cfg.SampleEvery = s.sampleEvery
	cfg.Workers = workers()
	return cfg
}

// fleetStats is the simulated outcome of one run: identical on every run
// of a seed.
type fleetStats struct {
	Fingerprint                                uint64
	Arrivals, Completed, Shed, Errors          int64
	Churns, Windows                            int64
	FinalOpen                                  int
	CopiesMean, CopiesMin, CopiesMax, Exposure float64
}

func statsOf(r *fleet.Result) fleetStats {
	return fleetStats{
		Fingerprint: r.Fingerprint,
		Arrivals:    r.Arrivals, Completed: r.Completed, Shed: r.Shed, Errors: r.Errors,
		Churns: r.Churns, Windows: r.Windows, FinalOpen: r.FinalOpen,
		CopiesMean: r.Copies.Mean(), CopiesMin: r.Copies.StreamMin(),
		CopiesMax: r.Copies.StreamMax(), Exposure: r.Exposure,
	}
}

// check reports every way a fleet result is wrong.
func (s fleetSpec) check(st fleetStats, out *outcome) {
	if st.Errors != 0 {
		out.fail("fleet: %d connection errors", st.Errors)
	}
	if got := st.Completed + int64(st.FinalOpen) + st.Shed + st.Errors; got != st.Arrivals {
		out.fail("fleet: arrivals %d != completed+open+shed+errors %d", st.Arrivals, got)
	}
	if st.Windows == 0 {
		out.fail("fleet: no scan windows")
	}
	if st.CopiesMin != s.copiesPerWindow || st.CopiesMax != s.copiesPerWindow {
		out.fail("fleet: key copies per window min %v max %v, want exactly %v at %s",
			st.CopiesMin, st.CopiesMax, s.copiesPerWindow, s.level)
	}
}

// runFleet times set-up (median of horizon-1 runs of the same config),
// then repeats the full fleet.Run until the time budget is spent.
func runFleet(spec fleetSpec, seed int64, seconds float64, log io.Writer) (*outcome, error) {
	cfg := spec.config(seed)
	out := &outcome{}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		short := cfg
		short.Horizon = 1
		start := time.Now()
		if _, err := fleet.Run(short); err != nil {
			return nil, fmt.Errorf("fleet set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	var (
		first                 *fleetStats
		connRates, trialRates []float64
		allocs, durs          []float64
	)
	err := repeat(seconds, func() (float64, error) {
		runtime.GC()
		a0 := allocatedMB()
		start := time.Now()
		res, err := fleet.Run(cfg)
		dt := time.Since(start).Seconds()
		if err != nil {
			return dt, fmt.Errorf("fleet: %w", err)
		}
		st := statsOf(res)
		// The seed's Poisson and burst draws move the population a few
		// percent around the nominal size; per-run quantities are scaled
		// to the nominal fleetConns arrivals so seeds compare.
		scale := float64(fleetConns) / float64(max(st.Arrivals, 1))
		allocs = append(allocs, (allocatedMB()-a0)*scale)
		spec.check(st, out)
		if first == nil {
			first = &st
		} else if st != *first {
			out.fail("fleet: simulated statistics differ between runs of seed %d: %+v vs %+v", seed, st, *first)
		}
		durs = append(durs, dt)
		connRates = append(connRates, float64(st.Completed)/dt)
		// Every machine-window scan is a full-memory capture searched
		// with the paper's pattern criterion.
		trialRates = append(trialRates, float64(st.Windows)/(dt*scale))
		out.res.Attempted += st.Arrivals
		out.res.Failed += st.Errors + st.Shed
		return dt, nil
	})
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "%s %s seed=%d: %d arrivals, %d completed, %d shed, fp=%#x, copies/window %.0f (min %.0f max %.0f), %d windows; runs %.3v s; setup %.3v s\n",
		cfg.Kind, cfg.Level, seed, first.Arrivals, first.Completed, first.Shed, first.Fingerprint,
		first.CopiesMean, first.CopiesMin, first.CopiesMax, first.Windows, durs, setups)
	setHostMetrics(out, connRates, trialRates, setups, allocs, rss)
	return out, nil
}

// setHostMetrics fills the end-to-end metrics every workload reports.
func setHostMetrics(out *outcome, connRates, trialRates, setups, allocs []float64, rss float64) {
	out.set("conns_per_s", median(connRates), "1/s")
	out.set("attack_trials_per_s", median(trialRates), "1/s")
	out.set("setup_s", median(setups), "s")
	out.set("peak_rss_mb", rss, "MB")
	out.set("alloc_mb", median(allocs), "MB")
}

// repeat runs iter once, then again while the budget leaves room for one
// more iteration of the mean length so far. iter returns its own duration
// in seconds.
func repeat(seconds float64, iter func() (float64, error)) error {
	spent := 0.0
	for n := 1; ; n++ {
		dt, err := iter()
		if err != nil {
			return err
		}
		spent += dt
		if spent+spent/float64(n) > seconds {
			return nil
		}
	}
}
