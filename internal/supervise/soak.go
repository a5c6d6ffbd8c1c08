// Chaos soak harness: long seeded fault storms driven through a
// supervised server, with the machine's invariants checked at every step
// and a deterministic event log.
//
// A storm runs on one Machine: a kernel under a probabilistic fault plan
// armed across every site, serving a seeded connection workload through a
// Supervisor. RunStorm drives one machine; the fleet storm
// (internal/fleet) drives many in rounds under one re-provision arbiter.
// After every workload step (one machine tick; backoff waits advance the
// clock further inside a step) the machine asserts:
//
//   - structural consistency: alloc.CheckConsistency, vm.CheckConsistency;
//   - no false security: core.AuditEffective is clean at the level the
//     run currently claims — which at sealed effective levels includes
//     the "no plaintext at rest" rule (any allocated d/p/q copy while
//     claiming sealed is a violation), so a re-provision window can never
//     hide exposed key bytes;
//   - monotonic recovery counters: no Counters field ever decreases.
//
// The event log is a pure function of the storm seed: replaying a seed
// reproduces it byte for byte, and RunStorms' worker fan-out (one machine
// per storm, ordered commit via internal/runner) keeps the combined log
// byte-identical at any worker count. cmd/soak wires this to the CLI and
// CI (`make soak-smoke`).
package supervise

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"memshield/internal/core"
	"memshield/internal/crypto/rsakey"
	"memshield/internal/fault"
	"memshield/internal/hsm"
	"memshield/internal/kernel"
	"memshield/internal/protect"
	"memshield/internal/provision"
	"memshield/internal/runner"
	"memshield/internal/scan"
	"memshield/internal/server"
	"memshield/internal/stats"
)

// Every storm machine has the same shape: 768 pages of RAM, 16 of swap and
// a 512-bit key.
const (
	stormMemPages  = 768
	stormSwapPages = 16
	stormKeyBits   = 512
)

// StormConfig describes one soak storm.
type StormConfig struct {
	// Kind selects the server (default server.KindSSHD).
	Kind server.Kind
	// Level is the protection level (default LevelSealed — the level
	// whose recovery story has the most moving parts).
	Level protect.Level
	// Seed drives everything: keygen (sub-stream 1), the workload op mix
	// (2), the server seed (3), the fault plan (4), the retry policy (5).
	Seed int64
	// Steps is the workload length in steps (default 200). Each step
	// ends with one machine tick plus the full invariant check; retries
	// inside a step advance the clock further.
	Steps int
}

func (c *StormConfig) applyDefaults() {
	if c.Kind == "" {
		c.Kind = server.KindSSHD
	}
	if !c.Level.Valid() {
		c.Level = protect.LevelSealed
	}
	if c.Steps == 0 {
		c.Steps = 200
	}
}

// DefaultStormPlan arms every site with the soak probabilities: rarely
// consulted sites get high odds, hot sites low odds, so most storms
// survive setup and the steady-state recovery paths do the work.
func DefaultStormPlan(seed int64) *fault.Plan {
	return &fault.Plan{
		Seed: stats.DeriveSeed(seed, 4),
		Rules: map[fault.Site]fault.Rule{
			fault.SiteAllocPages: {Prob: 0.002},
			fault.SiteZeroOnFree: {Prob: 0.01},
			fault.SiteMlock:      {Prob: 0.05},
			fault.SiteSwapStore:  {Prob: 0.2},
			fault.SiteEvict:      {Prob: 0.2},
			fault.SiteFSRead:     {Prob: 0.02},
			fault.SiteMalloc:     {Prob: 0.002},
			fault.SiteUnseal:     {Prob: 0.05},
			fault.SiteSeal:       {Prob: 0.01},
		},
	}
}

// MachineConfig describes one storm machine.
type MachineConfig struct {
	// Kind and Level select the server and its protection level.
	Kind  server.Kind
	Level protect.Level
	// Seed is the machine's base seed: keygen (sub-stream 1), the
	// workload op mix (2), the server seed (3), the retry policy (5).
	Seed int64
	// Plan is the fault plan armed on the machine's kernel.
	Plan *fault.Plan
	// KeyPath is where the key file is installed. Injected fs.ReadFile
	// errors quote it, so it is part of the log.
	KeyPath string
	// LogPrefix starts every line the machine logs.
	LogPrefix string
	// ReprovisionGate, when set, is the supervisor's gate (Config) and
	// lifts the machine's own re-provision budget: whoever resumes the
	// parked machine arbitrates the budget instead.
	ReprovisionGate func() bool
}

// Machine is one supervised server under a fault storm: provisioned with
// an anchor-escrowed key, driven one seeded workload step at a time, its
// invariants checked after every step. Like every simulated machine it is
// single-goroutine.
type Machine struct {
	k      *kernel.Kernel
	sup    *Supervisor
	pat    []scan.Pattern
	rng    *rand.Rand
	open   []int
	gen    int
	prev   Counters
	steps  int
	parks  int
	prefix string
	log    []string
	// violation is the first invariant break ("" = none); a violated
	// machine must not be stepped again.
	violation string
}

// NewMachine provisions a storm machine: kernel under the fault plan,
// seeded key, anchor escrow, supervisor, key install and start. A refused
// start is logged, not returned: the storm goes on with a machine that
// claims nothing. The error covers only set-up outside the faulted
// surface.
func NewMachine(cfg MachineConfig) (*Machine, error) {
	m := &Machine{prefix: cfg.LogPrefix}
	var err error
	m.k, _, err = provision.Provision(provision.Recipe{Kernel: kernel.Config{
		MemPages:      stormMemPages,
		SwapPages:     stormSwapPages,
		DeallocPolicy: cfg.Level.KernelPolicy(),
		FaultPlan:     cfg.Plan,
	}})
	if err != nil {
		return nil, err
	}
	key, err := rsakey.Generate(stats.NewReader(stats.DeriveSeed(cfg.Seed, 1)), stormKeyBits)
	if err != nil {
		return nil, err
	}
	m.pat = scan.PatternsFor(key)
	// The anchor is provisioned out-of-band, before the storm: the same
	// trust model as the initial key install.
	anchor := hsm.New()
	slot, err := anchor.Import(key)
	if err != nil {
		return nil, err
	}
	status := protect.NewStatus(cfg.Level)
	policy := DefaultPolicy(stats.DeriveSeed(cfg.Seed, 5))
	if cfg.ReprovisionGate != nil {
		policy.Budget[OpReprovision] = math.MaxInt
	}
	m.sup = New(m.k, Config{
		Kind: cfg.Kind, KeyPath: cfg.KeyPath, Level: cfg.Level,
		Seed: stats.DeriveSeed(cfg.Seed, 3), Policy: policy,
		Anchor: anchor, AnchorSlot: slot, Status: status,
		ReprovisionGate: cfg.ReprovisionGate,
		OnEvent: func(e Event) {
			m.logf("tick=%d ev=%s op=%s attempt=%d wait=%d err=%q",
				e.Tick, e.Kind, e.Op, e.Attempt, e.Wait, OneLine(e.Detail))
			if e.Kind == "parked" {
				m.parks++
			}
		},
	})
	// The key file is installed once the supervisor exists, so a write
	// refused under the fault plan is logged as a refused start.
	if err := provision.InstallPEM(m.k, cfg.KeyPath, key); err != nil {
		status.Refuse(fmt.Sprintf("key install: %v", err))
		m.logf("tick=%d ev=refused op=start attempt=0 wait=0 err=%q", m.k.Clock(), OneLine(err.Error()))
	} else if err := m.sup.Start(); err != nil {
		m.logf("tick=%d ev=refused op=start attempt=0 wait=0 err=%q", m.k.Clock(), OneLine(err.Error()))
	}
	m.rng = stats.NewRand(stats.DeriveSeed(cfg.Seed, 2))
	m.gen = m.sup.Generation()
	m.prev = m.sup.Counters()
	return m, nil
}

func (m *Machine) logf(format string, args ...any) {
	m.log = append(m.log, m.prefix+fmt.Sprintf(format, args...))
}

// Step runs one workload step — connect and churn, disconnect, churn,
// memory pressure or pool maintenance, drawn from the machine's op
// stream — then one machine tick and the invariant check. It reports
// false when the check fails; the violation is logged and kept.
func (m *Machine) Step() bool {
	if g := m.sup.Generation(); g != m.gen {
		// A restarted generation invalidated every open connection.
		m.gen, m.open = g, nil
	}
	switch m.rng.Intn(6) {
	case 0, 1:
		if id, err := m.sup.Connect(); err == nil {
			m.open = append(m.open, id)
			_ = m.sup.Churn(id, 4096)
		}
	case 2:
		if len(m.open) > 0 {
			i := m.rng.Intn(len(m.open))
			_ = m.sup.Disconnect(m.open[i])
			m.open = append(m.open[:i], m.open[i+1:]...)
		}
	case 3:
		if len(m.open) > 0 {
			_ = m.sup.Churn(m.open[m.rng.Intn(len(m.open))], 4096)
		}
	case 4:
		if pid := m.sup.PID(); pid != 0 {
			if _, err := m.k.MemoryPressure(pid, 2); err != nil {
				m.logf("tick=%d ev=pressure-error op=churn attempt=0 wait=0 err=%q",
					m.k.Clock(), OneLine(err.Error()))
			}
		}
	case 5:
		_ = m.sup.Maintain()
	}
	m.k.Tick()
	if v := m.check(); v != "" {
		m.violation = v
		m.logf("tick=%d ev=violation step=%d err=%q", m.k.Clock(), m.steps, OneLine(v))
		return false
	}
	m.prev = m.sup.Counters()
	m.steps++
	return true
}

// check asserts the machine invariants: structural consistency, monotone
// recovery counters, and a clean effective-level audit. At a sealed
// effective level the audit's rules include "zero allocated plaintext
// key parts" — no plaintext at rest, re-provision windows included.
func (m *Machine) check() string {
	if err := m.k.Alloc().CheckConsistency(); err != nil {
		return fmt.Sprintf("allocator inconsistent: %v", err)
	}
	if err := m.k.VM().CheckConsistency(); err != nil {
		return fmt.Sprintf("vm inconsistent: %v", err)
	}
	cur := m.sup.Counters()
	if cur.Retries < m.prev.Retries || cur.BackoffTicks < m.prev.BackoffTicks ||
		cur.Recoveries < m.prev.Recoveries || cur.Exhaustions < m.prev.Exhaustions ||
		cur.Reprovisions < m.prev.Reprovisions || cur.Restarts < m.prev.Restarts {
		return fmt.Sprintf("recovery counters regressed: %+v -> %+v", m.prev, cur)
	}
	status := m.sup.Status()
	if rep := core.NewWithStatus(m.k, status).AuditEffective(m.pat); !rep.OK() {
		return fmt.Sprintf("audit violations at %s: %s",
			status.Effective(), strings.Join(rep.Violations, "; "))
	}
	return ""
}

// Idle advances the machine clock one tick without a workload step, so a
// parked or dead machine's backoff and scrub schedules stay live.
func (m *Machine) Idle() { m.k.Tick() }

// Stop shuts the server down (a failed stop is logged) and runs one last
// machine tick.
func (m *Machine) Stop() {
	if err := m.sup.Stop(); err != nil {
		m.logf("tick=%d ev=stop-error err=%q", m.k.Clock(), OneLine(err.Error()))
	}
	m.k.Tick()
}

// Supervisor returns the machine's supervisor.
func (m *Machine) Supervisor() *Supervisor { return m.sup }

// Violation returns the first invariant violation ("" = none).
func (m *Machine) Violation() string { return m.violation }

// Parks counts the machine's park events.
func (m *Machine) Parks() int { return m.parks }

// DrainLog appends the lines logged since the last drain to dst.
func (m *Machine) DrainLog(dst []string) []string {
	dst = append(dst, m.log...)
	m.log = m.log[:0]
	return dst
}

// StormResult is one storm's complete outcome.
type StormResult struct {
	Kind  server.Kind
	Level protect.Level
	Seed  int64
	// Log is the deterministic event log, one line per entry.
	Log []string
	// Counters is the supervisor's final recovery accounting.
	Counters Counters
	// Generation / Epoch are the final server generation and sealing
	// provisioning epoch.
	Generation int
	Epoch      int64
	// Refused / Effective are the final protection claim.
	Refused   bool
	Effective protect.Level
	// Survived reports whether the server was still serving when the
	// storm ended (a refused or dead run sets it false).
	Survived bool
	// InvariantErr is the first invariant violation, if any ("" = none).
	// Any non-empty value is a harness-level failure: the storm found a
	// machine state the fault model promises is unreachable.
	InvariantErr string
	// Fingerprint condenses everything replay-sensitive: per-site
	// injection counters, recovery counters, status summary, scan census.
	Fingerprint string
}

// RunStorm executes one storm. The returned error covers only harness
// bugs (setup outside the faulted surface); every in-storm failure is
// part of the result.
func RunStorm(cfg StormConfig) (*StormResult, error) {
	cfg.applyDefaults()
	res := &StormResult{Kind: cfg.Kind, Level: cfg.Level, Seed: cfg.Seed}
	res.Log = append(res.Log, fmt.Sprintf("storm kind=%s level=%s seed=%d steps=%d mem=%d swap=%d",
		cfg.Kind, cfg.Level, cfg.Seed, cfg.Steps, stormMemPages, stormSwapPages))

	m, err := NewMachine(MachineConfig{
		Kind: cfg.Kind, Level: cfg.Level, Seed: cfg.Seed,
		Plan: DefaultStormPlan(cfg.Seed), KeyPath: "/etc/keys/soak.key",
	})
	if err != nil {
		return nil, fmt.Errorf("soak: %w", err)
	}
	sup := m.sup
	// The first step runs even after a refused start, so the refusal gets
	// its tick and invariant check; later steps need a serving server.
	for step := 0; step < cfg.Steps; step++ {
		if (step > 0 && !sup.Running()) || !m.Step() {
			break
		}
	}
	res.Survived = sup.Running() && m.violation == ""
	m.Stop()
	if m.violation == "" {
		if v := m.check(); v != "" {
			m.violation = v
			m.logf("tick=%d ev=violation step=end err=%q", m.k.Clock(), OneLine(v))
		}
	}
	res.Log = m.DrainLog(res.Log)
	res.InvariantErr = m.violation

	status := sup.Status()
	res.Counters = sup.Counters()
	res.Generation = sup.Generation()
	res.Epoch = sup.Epoch()
	res.Refused, _ = status.Refused()
	res.Effective = status.Effective()
	rep := core.NewWithStatus(m.k, status).AuditEffective(m.pat)
	res.Fingerprint = stormFingerprint(m.k.Injector(), rep, status, res)
	res.Log = append(res.Log,
		fmt.Sprintf("final steps=%d survived=%v gen=%d epoch=%d retries=%d backoff=%d recoveries=%d exhaustions=%d reprovisions=%d restarts=%d",
			m.steps, res.Survived, res.Generation, res.Epoch,
			res.Counters.Retries, res.Counters.BackoffTicks, res.Counters.Recoveries,
			res.Counters.Exhaustions, res.Counters.Reprovisions, res.Counters.Restarts),
		fmt.Sprintf("final status=%q effective=%s fingerprint=%s", status.Summary(), res.Effective, res.Fingerprint))
	return res, nil
}

// stormFingerprint condenses a finished storm for seed-replay comparison.
func stormFingerprint(in *fault.Injector, rep *core.Report, st *protect.Status, res *StormResult) string {
	var b strings.Builder
	for _, site := range fault.Sites() {
		fmt.Fprintf(&b, "%s=%d/%d;", site, in.Injected(site), in.Calls(site))
	}
	fmt.Fprintf(&b, "|total=%d alloc=%d unalloc=%d swap=%d",
		rep.Summary.Total, rep.Summary.Allocated, rep.Summary.Unallocated, rep.SwapHits)
	fmt.Fprintf(&b, "|gen=%d epoch=%d %+v", res.Generation, res.Epoch, res.Counters)
	fmt.Fprintf(&b, "|%s|%s", st.Summary(), strings.Join(rep.Violations, "; "))
	return b.String()
}

// RunStorms executes one storm per config, fanned out over the worker
// pool with ordered commit: the i-th result is always storm i's, so the
// concatenated log is byte-identical at any worker count (each storm owns
// its machine; nothing is shared).
func RunStorms(cfgs []StormConfig, workers int) ([]*StormResult, error) {
	return runner.Map(workers, len(cfgs), func(i int) (*StormResult, error) {
		return RunStorm(cfgs[i])
	})
}

// OneLine flattens error text for a storm log: joined errors print
// multi-line and the log's replay contract is line-oriented.
func OneLine(s string) string {
	return strings.ReplaceAll(s, "\n", " | ")
}
