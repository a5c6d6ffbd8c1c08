package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"memshield"
	"memshield/internal/protect"
	"memshield/internal/stats"
)

// Attack-disclosure sizing: the paper's experiment on single 32 MiB
// machines, one cell per level × server.
const (
	attackMemMB   = 32
	attackKeyBits = 512
	// attackConns connections per cell, each with one to three 4 KiB
	// transfers; about half are closed before the attack.
	attackConns = 24
	// attackDumps tty dumps of ttyFraction of RAM each per cell, plus one
	// ext2 mkdir sweep of attackDirs directories.
	attackDumps    = 4
	ttyFraction    = 0.5
	attackDirs     = 1000
	attackKeyPath  = "/etc/ssl/private/server.key"
	transferBytes  = 4096
	recoveryStride = 16
)

// cellSpec is one victim configuration of the attack workload.
type cellSpec struct {
	level  protect.Level
	server string
}

// attackCells is every protection level the experiment compares × both
// servers. Cell i runs under seed DeriveSeed(workload seed, i).
var attackCells = [...]cellSpec{
	{protect.LevelNone, "sshd"}, {protect.LevelNone, "httpd"},
	{protect.LevelIntegrated, "sshd"}, {protect.LevelIntegrated, "httpd"},
	{protect.LevelSealed, "sshd"}, {protect.LevelSealed, "httpd"},
}

// cell is one booted victim: a machine, its installed key and its server
// behind the calls the mix uses.
type cell struct {
	cellSpec
	m   *memshield.Machine
	key *memshield.Key
	connCalls
}

// bootCell boots the machine, installs the key and starts the server.
func bootCell(spec cellSpec, seed int64, t *tracer) (*cell, error) {
	c := &cell{cellSpec: spec}
	err := t.span("kernel.boot", func() error {
		m, err := memshield.NewMachine(memshield.MachineConfig{
			MemoryMB: attackMemMB, Protection: c.level, Seed: seed, ScanWorkers: workers(),
		})
		c.m = m
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	t.attach(c.m.Kernel())
	if c.key, err = c.m.InstallKey(attackKeyPath, attackKeyBits); err != nil {
		return nil, fmt.Errorf("install key: %w", err)
	}
	switch c.server {
	case "sshd":
		err = t.span("sshd.start", func() error {
			s, err := c.m.StartSSH(c.level, c.key.Path)
			if err == nil {
				c.connCalls = traceCalls(t, "sshd", "transfer", s.Connect, s.Transfer, s.Disconnect)
				t.onFold(func() { t.addSSHD(s.Stats()) })
			}
			return err
		})
	default:
		err = t.span("httpd.start", func() error {
			s, err := c.m.StartApache(c.level, c.key.Path)
			if err == nil {
				c.connCalls = traceCalls(t, "httpd", "request", s.Connect, s.Request, s.Disconnect)
				t.onFold(func() { t.addHTTPD(s.Stats()) })
			}
			return err
		})
	}
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", c.server, err)
	}
	return c, nil
}

// connCalls drives one server's connections, each call inside its span.
type connCalls struct {
	connect    func() (int, error)
	churn      func(id int) error // one 4 KiB transfer or request
	disconnect func(id int) error
}

// traceCalls wraps the connection calls sshd and httpd share, each in the
// span server.call.
func traceCalls(t *tracer, server, churnName string,
	connect func() (int, error), churn func(id, n int) error, disconnect func(id int) error) connCalls {
	return connCalls{
		connect: func() (int, error) {
			var id int
			err := t.span(server+".connect", func() (err error) {
				id, err = connect()
				return err
			})
			return id, err
		},
		churn: func(id int) error {
			return t.span(server+"."+churnName, func() error { return churn(id, transferBytes) })
		},
		disconnect: func(id int) error {
			return t.span(server+".disconnect", func() error { return disconnect(id) })
		},
	}
}

// attackStats is the simulated outcome of one pass over all cells:
// identical on every pass of a seed.
type attackStats struct {
	Conns, Captures, Leaks, Recoveries int64
	Census                             int64
	// Per cell, in attackCells order: key copies found before the attack,
	// captures the pattern search hit, captures the key was recovered
	// from.
	CensusByCell, LeaksByCell, RecoveredByCell [len(attackCells)]int64
}

// attackPass runs every cell once: boot, connection mix, pre-attack
// census and audit, tty dumps and one ext2 sweep, each capture searched
// with the paper's pattern criterion and handed to public-key-only
// recovery.
func attackPass(seed int64, t *tracer, out *outcome) (attackStats, error) {
	var st attackStats
	for i, spec := range attackCells {
		cs := stats.DeriveSeed(seed, int64(i))
		c, err := bootCell(spec, cs, t)
		if err != nil {
			return st, fmt.Errorf("cell %s/%s: %w", spec.level, spec.server, err)
		}
		if err := c.attack(stats.NewRand(stats.DeriveSeed(cs, 1)), i, t, &st, out); err != nil {
			return st, fmt.Errorf("cell %s/%s: %w", spec.level, spec.server, err)
		}
		t.fold()
	}
	return st, nil
}

func (c *cell) attack(rng *rand.Rand, idx int, t *tracer, st *attackStats, out *outcome) error {
	for i := 0; i < attackConns; i++ {
		id, err := c.connect()
		if err != nil {
			return fmt.Errorf("connect %d: %w", i, err)
		}
		st.Conns++
		for n := 1 + rng.Intn(3); n > 0; n-- {
			if err := c.churn(id); err != nil {
				return fmt.Errorf("transfer on %d: %w", i, err)
			}
		}
		if rng.Intn(2) == 0 {
			if err := c.disconnect(id); err != nil {
				return fmt.Errorf("disconnect %d: %w", i, err)
			}
		}
	}
	c.m.Tick()

	var census int64
	if err := t.span("scan.scan", func() error {
		census = int64(c.m.Scan(c.key).Total)
		return nil
	}); err != nil {
		return err
	}
	st.Census += census
	st.CensusByCell[idx] = census
	if c.level != protect.LevelNone {
		if err := c.m.VerifyProtection(c.key); err != nil {
			out.fail("attack %s/%s: protection audit before the attack: %v", c.level, c.server, err)
		}
	}

	for d := 0; d < attackDumps; d++ {
		var found bool
		var capture []byte
		err := t.span("ttyleak.run", func() error {
			res, err := c.m.RunTTYAttackFraction(c.key, int64(d), ttyFraction)
			found, capture = res.Success, stitch(c.m.DumpMemory(), res.Offset, res.Size)
			return err
		})
		if err != nil {
			return fmt.Errorf("tty dump %d: %w", d, err)
		}
		c.tally(found, capture, idx, t, st, out)
	}
	var found bool
	var capture []byte
	err := t.span("ext2leak.run", func() error {
		res, err := c.m.RunExt2Attack(c.key, attackDirs)
		found, capture = res.Success, res.Captured
		return err
	})
	if err != nil {
		return fmt.Errorf("ext2 sweep: %w", err)
	}
	c.tally(found, capture, idx, t, st, out)
	return nil
}

// tally counts one capture: whether the pattern search found any key part,
// and whether public-key-only recovery rebuilt the installed key.
func (c *cell) tally(found bool, capture []byte, idx int, t *tracer, st *attackStats, out *outcome) {
	st.Captures++
	if found {
		st.Leaks++
		st.LeaksByCell[idx]++
	}
	// The search runs to the end of the capture (no MaxHits), so its cost
	// does not depend on where, or whether, the key turns up.
	var rec memshield.KeyRecovery
	_ = t.span("keyfinder.search", func() error {
		rec = memshield.RecoverKey(capture, c.key, memshield.RecoveryOptions{
			FactorStride: recoveryStride, Workers: workers(),
		})
		return nil
	})
	t.count("keyfinder.attempts", 1)
	if !rec.Success() {
		return
	}
	t.count("keyfinder.recovered", 1)
	st.Recoveries++
	st.RecoveredByCell[idx]++
	for _, hit := range rec.Hits {
		if !hit.Key.Equal(c.key.Private) {
			out.fail("attack %s/%s: key recovered at offset %d by %s is not the installed key",
				c.level, c.server, hit.Offset, hit.Method)
		}
	}
}

// stitch copies the disclosed window [off, off+size) of a full memory
// dump, wrapping around the end of memory the way the tty exploit's window
// does.
func stitch(dump []byte, off, size int) []byte {
	if len(dump) == 0 || size <= 0 {
		return nil
	}
	out := make([]byte, 0, size)
	end := off + size
	if end <= len(dump) {
		return append(out, dump[off:end]...)
	}
	out = append(out, dump[off:]...)
	return append(out, dump[:end-len(dump)]...)
}

// runAttack times set-up (median of cell boots), then repeats the full
// pass over all cells until the time budget is spent.
func runAttack(seed int64, seconds float64, log io.Writer) (*outcome, error) {
	out := &outcome{}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		for i, spec := range attackCells {
			if _, err := bootCell(spec, stats.DeriveSeed(seed, int64(i)), nil); err != nil {
				return nil, fmt.Errorf("attack set-up: %w", err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	var (
		first                 *attackStats
		connRates, trialRates []float64
		allocs, durs          []float64
	)
	err := repeat(seconds, func() (float64, error) {
		runtime.GC()
		a0 := allocatedMB()
		start := time.Now()
		st, err := attackPass(seed, nil, out)
		dt := time.Since(start).Seconds()
		if err != nil {
			return dt, err
		}
		allocs = append(allocs, allocatedMB()-a0)
		if first == nil {
			first = &st
		} else if st != *first {
			out.fail("attack: simulated statistics differ between runs of seed %d: %+v vs %+v", seed, st, *first)
		}
		durs = append(durs, dt)
		connRates = append(connRates, float64(st.Conns)/dt)
		trialRates = append(trialRates, float64(st.Captures)/dt)
		out.res.Attempted += st.Conns + st.Captures
		return dt, nil
	})
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "attack seed=%d: %d conns, %d captures, census %d %v, leaks %d %v, recoveries %d %v; runs %.3v s; setup %.3v s\n",
		seed, first.Conns, first.Captures, first.Census, first.CensusByCell, first.Leaks, first.LeaksByCell,
		first.Recoveries, first.RecoveredByCell, durs, setups)
	setHostMetrics(out, connRates, trialRates, setups, allocs, rss)
	return out, nil
}
