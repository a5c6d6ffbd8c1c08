package fleet

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func stormConfig() StormConfig {
	return StormConfig{
		Machines: 6, Rounds: 10, StepsPerRound: 60,
		Seed: 2007, Budget: 2, Workers: 4,
	}
}

// TestFleetStormParksAndArbitrates: with the seal site hot and a shared
// budget smaller than the fleet, machines park, the scheduler grants
// exactly the budget, and the rest are denied — and no machine ever
// trips an invariant while parked or resumed.
func TestFleetStormParksAndArbitrates(t *testing.T) {
	res, err := RunFleetStorm(stormConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.InvariantErr != "" {
		t.Fatalf("invariant violated: %s", res.InvariantErr)
	}
	if res.Parks == 0 {
		t.Fatal("no machine ever parked — the seal site never destroyed a key")
	}
	if res.Grants != 2 {
		t.Errorf("grants = %d, want the full budget of 2 spent", res.Grants)
	}
	if res.Denials == 0 {
		t.Error("no denials despite budget < parks")
	}
	if res.BudgetLeft != 0 {
		t.Errorf("budget left = %d with parked machines waiting", res.BudgetLeft)
	}
	if res.Survivors+res.Parked+res.Dead != res.Machines {
		t.Errorf("machine accounting %d+%d+%d != %d machines",
			res.Survivors, res.Parked, res.Dead, res.Machines)
	}
	// The grant walk is machine-index-ordered: within the log, grant
	// lines of one round must carry strictly increasing machine indices.
	lastRound, lastIdx := -1, -1
	for _, line := range res.Log {
		if !strings.Contains(line, " grant m") {
			continue
		}
		var round, idx int
		if n, _ := fmt.Sscanf(line, "round=%d grant m%d", &round, &idx); n != 2 {
			t.Fatalf("unparseable grant line %q", line)
		}
		if round == lastRound && idx <= lastIdx {
			t.Fatalf("grant order regressed within round %d: m%d after m%d", round, idx, lastIdx)
		}
		lastRound, lastIdx = round, idx
	}
}

// TestFleetStormSeedReplay: the whole storm — fault injections, parks,
// grant walk, log — replays byte-identically from the seed.
func TestFleetStormSeedReplay(t *testing.T) {
	a, err := RunFleetStorm(stormConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFleetStorm(stormConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("fingerprints diverged on replay: %s vs %s", a.Fingerprint, b.Fingerprint)
	}
	if !reflect.DeepEqual(a.Log, b.Log) {
		t.Fatal("logs diverged on replay")
	}
}

// TestFleetStormWorkerInvariance: the combined log is byte-identical at
// any worker count — machines are independent, commits are ordered, and
// the grant walk is serial.
func TestFleetStormWorkerInvariance(t *testing.T) {
	var ref *StormResult
	for _, workers := range []int{1, 2, 8} {
		cfg := stormConfig()
		cfg.Workers = workers
		res, err := RunFleetStorm(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Fingerprint != ref.Fingerprint {
			t.Errorf("workers=%d: fingerprint %s != %s", workers, res.Fingerprint, ref.Fingerprint)
		}
		if !reflect.DeepEqual(res.Log, ref.Log) {
			t.Errorf("workers=%d: log diverged", workers)
		}
	}
}

// TestFleetStormGenerousBudget: with budget >= parks every parked machine
// is granted, denials stay zero, and at least one grant turns into a
// completed re-provision (restart under a new epoch).
func TestFleetStormGenerousBudget(t *testing.T) {
	cfg := stormConfig()
	cfg.Budget = cfg.Machines * 3
	res, err := RunFleetStorm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.InvariantErr != "" {
		t.Fatalf("invariant violated: %s", res.InvariantErr)
	}
	if res.Denials != 0 {
		t.Errorf("denials = %d with a generous budget", res.Denials)
	}
	if res.Grants == 0 {
		t.Fatal("no grants despite parked machines")
	}
	reprovisioned := false
	for _, line := range res.Log {
		if strings.Contains(line, "ev=reprovisioned") {
			reprovisioned = true
			break
		}
	}
	if !reprovisioned {
		t.Error("no grant completed a re-provision")
	}
}

// TestFleetStormLogGolden pins the full log of the `make fleet-smoke`
// storm (4 machines, 6 rounds of 40 steps, budget 2, seed 2007): parks,
// the serial grant walk, denials, re-provisions whose restarts are refused,
// and the per-machine finals. The fingerprint is the FNV-1a of the log.
func TestFleetStormLogGolden(t *testing.T) {
	res, err := RunFleetStorm(StormConfig{
		Machines: 4, Rounds: 6, StepsPerRound: 40, Seed: 2007, Budget: 2, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	const want = "aa2c3d2cf3ce3cdb"
	if res.Fingerprint != want {
		t.Fatalf("fleet storm log fingerprint = %s, want %s; log:\n%s",
			res.Fingerprint, want, strings.Join(res.Log, "\n"))
	}
}
