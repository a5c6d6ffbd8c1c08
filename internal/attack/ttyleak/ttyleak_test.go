package ttyleak

import (
	"reflect"
	"testing"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/kernel"
	"memshield/internal/mem"
	"memshield/internal/protect"
	"memshield/internal/scan"
	"memshield/internal/server/sshd"
	"memshield/internal/stats"
)

const keyPath = "/etc/ssh/key.pem"

func rig(t *testing.T, level protect.Level, conns int) (*kernel.Kernel, []scan.Pattern, *sshd.Server) {
	t.Helper()
	k, err := kernel.New(kernel.Config{MemPages: 4096, DeallocPolicy: level.KernelPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	key, err := rsakey.Generate(stats.NewReader(777), 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.FS().WriteFile(keyPath, key.MarshalPEM()); err != nil {
		t.Fatal(err)
	}
	if err := k.ScrambleFreeMemory(55); err != nil {
		t.Fatal(err)
	}
	s, err := sshd.Start(k, sshd.Config{KeyPath: keyPath, Level: level, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < conns; i++ {
		if _, err := s.Connect(); err != nil {
			t.Fatal(err)
		}
	}
	return k, scan.PatternsFor(key), s
}

func TestFullDumpMatchesScanner(t *testing.T) {
	k, patterns, _ := rig(t, protect.LevelNone, 5)
	res, err := Run(k, patterns, stats.NewRand(1), Config{Fraction: 1.0, Jitter: 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	want := scan.Summarize(scan.New(k, patterns).Scan())
	if res.Summary.Total != want.Total {
		t.Fatalf("full dump found %d, scanner found %d", res.Summary.Total, want.Total)
	}
	if !res.Success || res.Summary.Total == 0 {
		t.Fatal("full dump of busy unprotected server must succeed")
	}
	if res.Size > k.Mem().Size() {
		t.Fatalf("window = %d+%d", res.Offset, res.Size)
	}
}

func TestHalfDumpFindsRoughlyHalf(t *testing.T) {
	k, patterns, _ := rig(t, protect.LevelNone, 10)
	total := scan.Summarize(scan.New(k, patterns).Scan()).Total
	if total < 20 {
		t.Fatalf("rig too quiet: %d copies", total)
	}
	found := 0.0
	const trials = 40
	rng := stats.NewRand(9)
	for i := 0; i < trials; i++ {
		res, err := Run(k, patterns, rng, Config{})
		if err != nil {
			t.Fatal(err)
		}
		found += float64(res.Summary.Total)
	}
	avg := found / trials
	frac := avg / float64(total)
	// Copies cluster, so the per-trial fraction is noisy; the mean over 40
	// trials should be broadly around the disclosed fraction.
	if frac < 0.2 || frac > 0.8 {
		t.Fatalf("mean recovered fraction = %.2f, want ~0.5", frac)
	}
}

func TestIntegratedReducesToSingleCopyAndCoinFlip(t *testing.T) {
	k, patterns, _ := rig(t, protect.LevelIntegrated, 10)
	// Full dump: exactly the three aligned parts, nothing else.
	res, err := Run(k, patterns, stats.NewRand(3), Config{Fraction: 1.0, Jitter: 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Total != 3 {
		t.Fatalf("full dump on integrated = %d copies, want 3 (d,p,q on one page)", res.Summary.Total)
	}
	// Half dumps: success becomes a coin flip ≈ the disclosed fraction.
	successes := 0
	const trials = 60
	rng := stats.NewRand(4)
	for i := 0; i < trials; i++ {
		r, err := Run(k, patterns, rng, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Success {
			successes++
		}
	}
	rate := float64(successes) / trials
	if rate < 0.25 || rate > 0.75 {
		t.Fatalf("integrated success rate = %.2f, want ~0.5", rate)
	}
}

func TestUnprotectedHalfDumpAlmostAlwaysSucceeds(t *testing.T) {
	k, patterns, _ := rig(t, protect.LevelNone, 10)
	successes := 0
	const trials = 20
	rng := stats.NewRand(5)
	for i := 0; i < trials; i++ {
		r, err := Run(k, patterns, rng, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Success {
			successes++
		}
	}
	if rate := float64(successes) / trials; rate < 0.9 {
		t.Fatalf("unprotected success rate = %.2f, want ~1", rate)
	}
}

func TestRunValidatesArgs(t *testing.T) {
	k, patterns, _ := rig(t, protect.LevelNone, 1)
	if _, err := Run(k, patterns, nil, Config{}); err == nil {
		t.Fatal("nil rng should error")
	}
	if _, err := Run(k, patterns, stats.NewRand(1), Config{Fraction: 1.5}); err == nil {
		t.Fatal("fraction > 1 should error")
	}
	if _, err := Run(k, patterns, stats.NewRand(1), Config{Fraction: -0.5}); err == nil {
		t.Fatal("negative fraction should error")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	k, patterns, _ := rig(t, protect.LevelNone, 3)
	r1, err := Run(k, patterns, stats.NewRand(42), Config{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(k, patterns, stats.NewRand(42), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Offset != r2.Offset || r1.Size != r2.Size || r1.Summary.Total != r2.Summary.Total {
		t.Fatal("same seed must reproduce the same dump")
	}
}

func TestWrappedDumpMatchesStitchedDump(t *testing.T) {
	k, patterns, _ := rig(t, protect.LevelNone, 5)
	// Plant d split across the end of physical memory, so the only way to
	// see this copy is across the wrapped window's seam.
	memSize := k.Mem().Size()
	d := patterns[0].Bytes
	h := len(d) / 2
	if err := k.Mem().Write(mem.Addr(memSize-h), d[:h]); err != nil {
		t.Fatal(err)
	}
	if err := k.Mem().Write(0, d[h:]); err != nil {
		t.Fatal(err)
	}
	// Seed 50 places the window in the last 2% of memory, so it wraps.
	res, err := Run(k, patterns, stats.NewRand(50), Config{})
	if err != nil {
		t.Fatal(err)
	}
	end := res.Offset + res.Size
	if end <= memSize || res.Offset < memSize-memSize/16 {
		t.Fatalf("window [%d, %d) does not wrap near the end of %d bytes", res.Offset, end, memSize)
	}
	image, err := k.Mem().View(0, memSize)
	if err != nil {
		t.Fatal(err)
	}
	tail, head := image[res.Offset:], image[:end-memSize]
	stitched := append(append([]byte(nil), tail...), head...)
	want := scan.CountInBuffer(stitched, patterns)
	if !reflect.DeepEqual(res.Summary, want) {
		t.Fatalf("wrapped summary = %+v, stitched dump = %+v", res.Summary, want)
	}
	if res.Success != (want.Total > 0) {
		t.Fatalf("success = %v with %d matches", res.Success, want.Total)
	}
	apart := scan.CountInBuffer(tail, patterns).Total + scan.CountInBuffer(head, patterns).Total
	if want.Total != apart+1 {
		t.Fatalf("stitched dump holds %d matches, the views apart %d: the seam copy is not exercised", want.Total, apart)
	}
}
