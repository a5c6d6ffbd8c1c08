// Fleet storms: many supervised machines weathering fault storms under
// ONE fleet-level recovery arbiter, instead of each machine spending
// anchor material the moment it wants to.
//
// Every machine is the storm machine of a single-machine soak storm
// (supervise.Machine): a supervised server at LevelSealed, a
// probabilistic fault plan armed across every site, seeded workload ops,
// invariants checked as it goes. The fleet twist is the re-provision
// path. Each supervisor's ReprovisionGate always declines, so a
// fail-closed sealed-key destroy PARKS the machine instead of silently
// drawing from its anchor. Between drive rounds the fleet scheduler walks
// the machines serially, in machine-index order, and grants parked
// machines a resume from one shared budget until it runs dry; machines
// past the budget stay parked — degraded, honest, never over-claiming.
//
// Determinism: drive rounds fan machines out over the worker pool with
// ordered commit (each machine is its own kernel; nothing is shared), and
// the grant walk is serial in machine order. The combined log and
// fingerprint are therefore byte-identical at any worker count — the same
// contract as the fleet traffic engine and RunStorms.
package fleet

import (
	"fmt"
	"hash/fnv"

	"memshield/internal/fault"
	"memshield/internal/protect"
	"memshield/internal/runner"
	"memshield/internal/stats"
	"memshield/internal/supervise"
)

// StormConfig describes one fleet storm.
type StormConfig struct {
	// Machines is the fleet size (default 4).
	Machines int
	// Rounds is the number of drive+grant rounds (default 8).
	Rounds int
	// StepsPerRound is each machine's workload steps per drive round
	// (default 40).
	StepsPerRound int
	// Kind selects the server (default sshd).
	Kind Kind
	// Level is the protection level (default LevelSealed — the only level
	// whose fail-closed destroy exercises the park/grant path).
	Level protect.Level
	// Seed drives everything; machine i derives its own sub-streams from
	// DeriveSeed(Seed, i).
	Seed int64
	// Budget is the fleet-wide re-provision budget shared across all
	// machines (default Machines/2, minimum 1). Each grant spends one
	// unit; a parked machine past the budget stays parked.
	Budget int
	// Workers sizes the drive-round worker pool (0 = NumCPU).
	Workers int
}

func (c *StormConfig) applyDefaults() {
	if c.Machines == 0 {
		c.Machines = 4
	}
	if c.Rounds == 0 {
		c.Rounds = 8
	}
	if c.StepsPerRound == 0 {
		c.StepsPerRound = 40
	}
	if c.Kind == "" {
		c.Kind = KindSSHD
	}
	if !c.Level.Valid() {
		c.Level = protect.LevelSealed
	}
	if c.Budget == 0 {
		c.Budget = c.Machines / 2
		if c.Budget < 1 {
			c.Budget = 1
		}
	}
}

// fleetStormPlan is DefaultStormPlan with the seal site hot: fleet storms
// are about the park/grant path, so fail-closed destroys need to happen
// within a few rounds rather than once in a long soak.
func fleetStormPlan(seed int64) *fault.Plan {
	p := supervise.DefaultStormPlan(seed)
	p.Rules[fault.SiteSeal] = fault.Rule{Prob: 0.05}
	return p
}

// StormResult is one fleet storm's outcome.
type StormResult struct {
	Machines int
	Rounds   int
	// Parks counts park events across the fleet (a machine can park more
	// than once if granted and destroyed again).
	Parks int
	// Grants / Denials account the shared budget: every grant resumed one
	// parked machine, every denial left one parked for the round.
	Grants  int
	Denials int
	// BudgetLeft is the unspent share of the re-provision budget.
	BudgetLeft int
	// Survivors counts machines still serving at the end; Parked counts
	// machines that ended parked (degraded, waiting on a grant that never
	// came); Dead counts terminal supervisor failures.
	Survivors int
	Parked    int
	Dead      int
	// InvariantErr is the first machine-invariant violation ("" = none).
	InvariantErr string
	// Log is the deterministic fleet log: machine events in machine order
	// within each round, grant-walk lines between rounds.
	Log []string
	// Fingerprint condenses the log and final accounting for seed-replay
	// and worker-invariance checks.
	Fingerprint string
}

// drive runs one round of workload steps on a fleet member; a parked or
// dead machine just lets its clock idle so backoff/scrub schedules stay
// live, and a violated machine stops.
func drive(m *supervise.Machine, steps int) {
	for step := 0; step < steps && m.Violation() == ""; step++ {
		if !m.Supervisor().Running() {
			m.Idle()
			continue
		}
		m.Step()
	}
}

// RunFleetStorm executes one fleet storm: provision the fleet, then
// alternate parallel drive rounds with serial grant walks over the shared
// re-provision budget. The returned error covers only harness bugs;
// every in-storm failure is part of the result.
func RunFleetStorm(cfg StormConfig) (*StormResult, error) {
	cfg.applyDefaults()
	res := &StormResult{Machines: cfg.Machines, Rounds: cfg.Rounds}
	res.Log = append(res.Log, fmt.Sprintf(
		"fleetstorm machines=%d rounds=%d steps=%d kind=%s level=%s seed=%d budget=%d",
		cfg.Machines, cfg.Rounds, cfg.StepsPerRound, cfg.Kind, cfg.Level, cfg.Seed, cfg.Budget))

	// Provision in parallel with ordered commit; setup lines land in
	// machine order. Each supervisor's gate always parks: re-provision
	// grants are the fleet scheduler's call, never the machine's.
	machines, err := runner.Map(cfg.Workers, cfg.Machines, func(i int) (*supervise.Machine, error) {
		base := stats.DeriveSeed(cfg.Seed, int64(i))
		m, err := supervise.NewMachine(supervise.MachineConfig{
			Kind: cfg.Kind, Level: cfg.Level, Seed: base,
			Plan:            fleetStormPlan(stats.DeriveSeed(base, 4)),
			KeyPath:         "/etc/keys/fleet-storm.key",
			LogPrefix:       fmt.Sprintf("m%d ", i),
			ReprovisionGate: func() bool { return false },
		})
		if err != nil {
			return nil, fmt.Errorf("fleet storm m%d: %w", i, err)
		}
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	for _, m := range machines {
		res.Log = m.DrainLog(res.Log)
	}

	budget := cfg.Budget
	for round := 0; round < cfg.Rounds; round++ {
		// Drive phase: every machine advances independently; ordered
		// commit keeps the combined log worker-invariant.
		if _, err := runner.Map(cfg.Workers, cfg.Machines, func(i int) (struct{}, error) {
			drive(machines[i], cfg.StepsPerRound)
			return struct{}{}, nil
		}); err != nil {
			return nil, err
		}
		for _, m := range machines {
			res.Log = m.DrainLog(res.Log)
		}
		// Grant phase: serial, machine-index order — THE deterministic
		// arbitration order for the shared budget.
		for i, m := range machines {
			sup := m.Supervisor()
			if sup.Parked() == nil {
				continue
			}
			if budget <= 0 {
				res.Denials++
				res.Log = append(res.Log, fmt.Sprintf(
					"round=%d grant m%d denied budget=0 cause=%q",
					round, i, supervise.OneLine(sup.Parked().Error())))
				continue
			}
			budget--
			res.Grants++
			res.Log = append(res.Log, fmt.Sprintf(
				"round=%d grant m%d budget-left=%d", round, i, budget))
			if err := sup.ResumeReprovision(); err != nil {
				res.Log = append(res.Log, fmt.Sprintf(
					"round=%d resume-failed m%d err=%q", round, i, supervise.OneLine(err.Error())))
			}
			res.Log = m.DrainLog(res.Log)
		}
	}

	res.BudgetLeft = budget
	for i, m := range machines {
		sup := m.Supervisor()
		res.Parks += m.Parks()
		switch {
		case m.Violation() != "":
			if res.InvariantErr == "" {
				res.InvariantErr = fmt.Sprintf("m%d: %s", i, m.Violation())
			}
		case sup.Parked() != nil:
			res.Parked++
		case sup.Failed() != nil:
			res.Dead++
		case sup.Running():
			res.Survivors++
		default:
			res.Dead++
		}
		m.Stop()
		res.Log = m.DrainLog(res.Log)
		c := sup.Counters()
		res.Log = append(res.Log, fmt.Sprintf(
			"m%d final parked=%v dead=%v gen=%d epoch=%d reprovisions=%d restarts=%d effective=%s",
			i, sup.Parked() != nil, sup.Failed() != nil, sup.Generation(), sup.Epoch(),
			c.Reprovisions, c.Restarts, sup.Status().Effective()))
	}
	res.Log = append(res.Log, fmt.Sprintf(
		"final survivors=%d parked=%d dead=%d parks=%d grants=%d denials=%d budget-left=%d",
		res.Survivors, res.Parked, res.Dead, res.Parks, res.Grants, res.Denials, res.BudgetLeft))
	res.Fingerprint = stormLogFingerprint(res.Log)
	return res, nil
}

// stormLogFingerprint condenses the fleet log for replay comparison.
func stormLogFingerprint(log []string) string {
	h := fnv.New64a()
	for _, line := range log {
		_, _ = h.Write([]byte(line))
		_, _ = h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
