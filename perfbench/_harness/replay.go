package main

import (
	"fmt"
	"math/rand"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/fleet"
	"memshield/internal/kernel"
	"memshield/internal/scan"
	"memshield/internal/scrub"
	"memshield/internal/server/httpd"
	"memshield/internal/server/sshd"
	"memshield/internal/stats"
)

// replayStats is the simulated outcome of one replayed machine: identical
// with and without tracing.
type replayStats struct {
	Arrivals, Completed, Shed, Errors int64
	Transfers, Windows, Copies        int64
	Mutations                         uint64
}

// replayConn is one open connection of a replayed machine.
type replayConn struct {
	tenant, id int
	gen        uint32
	open       bool
	closeAt    uint64
}

// replayEvent is a scheduled close or transfer of a connection slot.
type replayEvent struct {
	slot  int
	gen   uint32
	close bool
}

// replay drives one machine of a fleet config through the servers' public
// calls, with a span around each call into a layer when t is non-nil. It
// draws the fleet's traffic shape — Poisson arrivals with burst phases,
// exponential lifetimes and transfer gaps, a shed cap, pool maintenance
// and scan windows on their cadences — from its own seeded stream, so it
// is the same kind of load as one fleet.Run machine, not the same
// population.
func replay(spec fleetSpec, seed int64, t *tracer, out *outcome) (replayStats, error) {
	cfg := spec.config(seed)
	base := stats.DeriveSeed(cfg.Seed, 0)
	var st replayStats

	var k *kernel.Kernel
	err := t.span("kernel.boot", func() error {
		var err error
		if k, err = kernel.New(kernel.Config{
			MemPages: cfg.MemPages, SwapPages: cfg.SwapPages, DeallocPolicy: cfg.Level.KernelPolicy(),
		}); err != nil {
			return err
		}
		return k.ScrambleFreeMemory(stats.DeriveSeed(base, 5))
	})
	if err != nil {
		return st, fmt.Errorf("replay boot: %w", err)
	}
	t.attach(k)

	var patterns []scan.Pattern
	calls := make([]connCalls, cfg.Tenants)
	var maintain []func() error
	for tn := 0; tn < cfg.Tenants; tn++ {
		key, err := rsakey.Generate(stats.NewReader(stats.DeriveSeed(base, 3, int64(tn))), cfg.KeyBits)
		if err != nil {
			return st, fmt.Errorf("replay keygen: %w", err)
		}
		path := fmt.Sprintf("/etc/keys/tenant-%d.key", tn)
		pem := key.MarshalPEM()
		err = k.FS().WriteFile(path, pem)
		scrub.Bytes(pem)
		if err != nil {
			return st, fmt.Errorf("replay install key: %w", err)
		}
		patterns = append(patterns, scan.PatternsFor(key)...)
		srvSeed := stats.DeriveSeed(base, 4, int64(tn))
		switch cfg.Kind {
		case fleet.KindHTTPD:
			err = t.span("httpd.start", func() error {
				s, err := httpd.Start(k, httpd.Config{
					KeyPath: path, Level: cfg.Level, Seed: srvSeed, MaxClients: cfg.MaxOpen + 4,
					StartServers: 1, MinSpareServers: 1, MaxSpareServers: 2,
				})
				if err == nil {
					calls[tn] = traceCalls(t, "httpd", "request", s.Connect, s.Request, s.Disconnect)
					maintain = append(maintain, s.MaintainSpares)
					t.onFold(func() { t.addHTTPD(s.Stats()) })
				}
				return err
			})
		default:
			err = t.span("sshd.start", func() error {
				s, err := sshd.Start(k, sshd.Config{
					KeyPath: path, Level: cfg.Level, Seed: srvSeed, SessionBufferBytes: cfg.SessionBufferBytes,
				})
				if err == nil {
					calls[tn] = traceCalls(t, "sshd", "transfer", s.Connect, s.Transfer, s.Disconnect)
					t.onFold(func() { t.addSSHD(s.Stats()) })
				}
				return err
			})
		}
		if err != nil {
			return st, fmt.Errorf("replay start tenant %d: %w", tn, err)
		}
	}
	scanner := scan.NewWith(k, patterns, scan.Options{Workers: 1})
	t.onFold(func() {
		ss := scanner.Stats()
		t.count("scan.frames_scanned", float64(ss.FramesScanned))
		t.count("scan.frames_cached", float64(ss.FramesCached))
	})

	rng := rand.New(rand.NewSource(stats.DeriveSeed(base, 1)))
	conns := make([]replayConn, cfg.MaxOpen)
	free := make([]int, 0, cfg.MaxOpen)
	for i := cfg.MaxOpen - 1; i >= 0; i-- {
		free = append(free, i)
	}
	due := make([][]replayEvent, cfg.Horizon+1)
	schedule := func(at uint64, ev replayEvent) {
		if at <= cfg.Horizon {
			due[at] = append(due[at], ev)
		}
	}
	scheduleChurn := func(now uint64, slot int) {
		c := &conns[slot]
		if next := now + 1 + uint64(rng.ExpFloat64()*cfg.ChurnGapTicks); next < c.closeAt {
			schedule(next, replayEvent{slot: slot, gen: c.gen})
		}
	}
	closeConn := func(slot int) {
		c := &conns[slot]
		if err := calls[c.tenant].disconnect(c.id); err != nil {
			st.Errors++
		}
		st.Completed++
		c.open = false
		c.gen++
		free = append(free, slot)
	}

	var (
		nextArrival float64
		inBurst     bool
		phaseEnd    uint64
	)
	for now := uint64(0); now <= cfg.Horizon; now++ {
		for now >= phaseEnd {
			mean := cfg.BurstOffTicks
			if inBurst = !inBurst; inBurst {
				mean = cfg.BurstOnTicks
			}
			phaseEnd += 1 + uint64(rng.ExpFloat64()*mean)
		}
		rate := cfg.ArrivalRate
		if inBurst {
			rate *= cfg.BurstFactor
		}
		for nextArrival < float64(now+1) {
			nextArrival += rng.ExpFloat64() / rate
			tenant := rng.Intn(cfg.Tenants)
			life := 1 + uint64(rng.ExpFloat64()*cfg.LifetimeTicks)
			st.Arrivals++
			if len(free) == 0 {
				st.Shed++
				continue
			}
			id, err := calls[tenant].connect()
			if err != nil {
				st.Errors++
				continue
			}
			slot := free[len(free)-1]
			free = free[:len(free)-1]
			c := &conns[slot]
			c.tenant, c.id, c.open, c.closeAt = tenant, id, true, now+life
			schedule(c.closeAt, replayEvent{slot: slot, gen: c.gen, close: true})
			if err := calls[tenant].churn(id); err != nil {
				st.Errors++
			}
			st.Transfers++
			scheduleChurn(now, slot)
		}
		for _, ev := range due[now] {
			c := &conns[ev.slot]
			if !c.open || c.gen != ev.gen {
				continue
			}
			if ev.close {
				closeConn(ev.slot)
				continue
			}
			if err := calls[c.tenant].churn(c.id); err != nil {
				st.Errors++
			}
			st.Transfers++
			scheduleChurn(now, ev.slot)
		}
		due[now] = nil
		k.Tick()
		if now%cfg.MaintainEvery == cfg.MaintainEvery-1 {
			for _, fn := range maintain {
				if err := t.span("httpd.maintain", fn); err != nil {
					st.Errors++
				}
			}
		}
		if now%cfg.SampleEvery == cfg.SampleEvery-1 {
			var copies int
			_ = t.span("scan.scan", func() error {
				copies = scan.Summarize(scanner.Scan()).Total
				return nil
			})
			st.Windows++
			st.Copies += int64(copies)
			if float64(copies) != spec.copiesPerWindow {
				out.fail("replay %s: %d key copies in a window, want %v", cfg.Level, copies, spec.copiesPerWindow)
			}
		}
	}
	for slot := range conns {
		if conns[slot].open {
			closeConn(slot)
		}
	}
	st.Mutations = k.Mem().Mutations()
	t.fold()
	if st.Errors != 0 {
		out.fail("replay %s/%s: %d connection errors", cfg.Kind, cfg.Level, st.Errors)
	}
	return st, nil
}
