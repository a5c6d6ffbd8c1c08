// Benchmarks regenerating every table and figure of the paper, plus
// micro-benchmarks of the substrate operations. Each BenchmarkFigureN runs
// the corresponding catalog experiment (scaled down so the full suite
// completes in minutes; run cmd/figures with -scale 1 for paper-scale
// sweeps) and reports the experiment's headline number as a custom metric.
package memshield

import (
	"flag"
	"testing"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/figures"
	"memshield/internal/fleet"
	"memshield/internal/kernel"
	"memshield/internal/kernel/alloc"
	"memshield/internal/keyfinder"
	"memshield/internal/mem"
	"memshield/internal/protect"
	"memshield/internal/scan"
	"memshield/internal/stats"
	"memshield/internal/workload"
)

// benchWorkers sets how many goroutines each experiment fans its cells
// across (0 = one per CPU). Results are byte-identical at any value, so
// this only changes the wall-clock side of the reported metrics:
//
//	go test -bench=Figure -bench-workers=1 .
var benchWorkers = flag.Int("bench-workers", 0, "worker goroutines per experiment (0 = one per CPU)")

// benchCfg is the shared scaled-down experiment configuration.
func benchCfg() figures.Config {
	return figures.Config{Seed: 2007, Scale: 0.2, Workers: *benchWorkers}
}

// runEntry executes one catalog experiment per iteration.
func runEntry(b *testing.B, id string) figures.Rendered {
	b.Helper()
	entry, ok := figures.Lookup(id)
	if !ok {
		b.Fatalf("unknown figure %q", id)
	}
	var last figures.Rendered
	for i := 0; i < b.N; i++ {
		res, err := entry.Run(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	return last
}

// --- Figures 1–2: ext2-leak attack sweeps ---

func BenchmarkFigure1SSHExt2Sweep(b *testing.B) {
	res := runEntry(b, "fig1").(*figures.Ext2Sweep)
	nd, nc := len(res.Dirs), len(res.Conns)
	b.ReportMetric(res.AvgCopies[nd-1][nc-1], "copies@max")
	b.ReportMetric(res.SuccessRate[nd-1][nc-1], "success@max")
}

func BenchmarkFigure2ApacheExt2Sweep(b *testing.B) {
	res := runEntry(b, "fig2").(*figures.Ext2Sweep)
	nd, nc := len(res.Dirs), len(res.Conns)
	b.ReportMetric(res.AvgCopies[nd-1][nc-1], "copies@max")
	b.ReportMetric(res.SuccessRate[nd-1][nc-1], "success@max")
}

// --- Figures 3–4: tty-dump attack sweeps ---

func BenchmarkFigure3SSHTTYSweep(b *testing.B) {
	res := runEntry(b, "fig3").(*figures.TTYSweep)
	n := len(res.Conns)
	b.ReportMetric(res.AvgCopies[0][n-1], "copies@max")
	b.ReportMetric(res.SuccessRate[0][n-1], "success@max")
}

func BenchmarkFigure4ApacheTTYSweep(b *testing.B) {
	res := runEntry(b, "fig4").(*figures.TTYSweep)
	n := len(res.Conns)
	b.ReportMetric(res.AvgCopies[0][n-1], "copies@max")
	b.ReportMetric(res.SuccessRate[0][n-1], "success@max")
}

// --- Figures 5–6: unprotected timelines ---

func timelinePeak(res *figures.TimelineFigure) (peak, endUnalloc float64) {
	for _, s := range res.Result.Samples {
		if float64(s.Summary.Total) > peak {
			peak = float64(s.Summary.Total)
		}
	}
	last := res.Result.Samples[len(res.Result.Samples)-1]
	return peak, float64(last.Summary.Unallocated)
}

func BenchmarkFigure5SSHTimeline(b *testing.B) {
	res := runEntry(b, "fig5").(*figures.TimelineFigure)
	peak, ghosts := timelinePeak(res)
	b.ReportMetric(peak, "peak-copies")
	b.ReportMetric(ghosts, "end-unallocated")
}

func BenchmarkFigure6ApacheTimeline(b *testing.B) {
	res := runEntry(b, "fig6").(*figures.TimelineFigure)
	peak, ghosts := timelinePeak(res)
	b.ReportMetric(peak, "peak-copies")
	b.ReportMetric(ghosts, "end-unallocated")
}

// --- Figures 7 / 17–18: before vs after integrated under the tty attack ---

func BenchmarkFigure7SSHBeforeAfter(b *testing.B) {
	res := runEntry(b, "fig7").(*figures.TTYSweep)
	n := len(res.Conns)
	b.ReportMetric(res.AvgCopies[0][n-1], "before-copies")
	b.ReportMetric(res.AvgCopies[1][n-1], "after-copies")
	b.ReportMetric(res.SuccessRate[1][n-1], "after-success")
}

func BenchmarkFigure17ApacheBeforeAfter(b *testing.B) {
	res := runEntry(b, "fig17").(*figures.TTYSweep)
	n := len(res.Conns)
	b.ReportMetric(res.AvgCopies[0][n-1], "before-copies")
	b.ReportMetric(res.AvgCopies[1][n-1], "after-copies")
	b.ReportMetric(res.SuccessRate[1][n-1], "after-success")
}

// --- Figures 8 / 19–20: performance before vs after ---

func BenchmarkFigure8SSHPerf(b *testing.B) {
	res := runEntry(b, "fig8").(*figures.PerfComparison)
	b.ReportMetric(res.Before.TransactionRate, "before-txn/s")
	b.ReportMetric(res.After.TransactionRate, "after-txn/s")
	b.ReportMetric(res.Before.ThroughputMbit, "before-Mbit/s")
	b.ReportMetric(res.After.ThroughputMbit, "after-Mbit/s")
}

func BenchmarkFigure19ApachePerf(b *testing.B) {
	res := runEntry(b, "fig19").(*figures.PerfComparison)
	b.ReportMetric(res.Before.TransactionRate, "before-txn/s")
	b.ReportMetric(res.After.TransactionRate, "after-txn/s")
	b.ReportMetric(res.Before.ResponseTimeSec*1000, "before-resp-ms")
	b.ReportMetric(res.After.ResponseTimeSec*1000, "after-resp-ms")
	b.ReportMetric(res.Before.Concurrency, "before-concurrency")
	b.ReportMetric(res.After.Concurrency, "after-concurrency")
}

// --- Figures 9–16: OpenSSH timelines per protection level ---

func benchTimeline(b *testing.B, id string) {
	res := runEntry(b, id).(*figures.TimelineFigure)
	peak, ghosts := timelinePeak(res)
	b.ReportMetric(peak, "peak-copies")
	b.ReportMetric(ghosts, "end-unallocated")
}

func BenchmarkFigure9SSHTimelineApp(b *testing.B)         { benchTimeline(b, "fig9") }
func BenchmarkFigure11SSHTimelineLibrary(b *testing.B)    { benchTimeline(b, "fig11") }
func BenchmarkFigure13SSHTimelineKernel(b *testing.B)     { benchTimeline(b, "fig13") }
func BenchmarkFigure15SSHTimelineIntegrated(b *testing.B) { benchTimeline(b, "fig15") }

// --- Figures 21–28: Apache timelines per protection level ---

func BenchmarkFigure21ApacheTimelineApp(b *testing.B)        { benchTimeline(b, "fig21") }
func BenchmarkFigure23ApacheTimelineLibrary(b *testing.B)    { benchTimeline(b, "fig23") }
func BenchmarkFigure25ApacheTimelineKernel(b *testing.B)     { benchTimeline(b, "fig25") }
func BenchmarkFigure27ApacheTimelineIntegrated(b *testing.B) { benchTimeline(b, "fig27") }

// --- §5.2/§6.2 re-examination and the dealloc ablation ---

func BenchmarkExt2Reexam(b *testing.B) {
	res := runEntry(b, "ext2-reexam").(*figures.Ext2ReexamResult)
	worst := 0.0
	for _, row := range res.Rows {
		if row.Level != protect.LevelNone && row.SuccessRate > worst {
			worst = row.SuccessRate
		}
	}
	b.ReportMetric(worst, "protected-worst-success")
}

func BenchmarkAblationDealloc(b *testing.B) {
	res := runEntry(b, "ablation").(*figures.AblationResult)
	for _, row := range res.Rows {
		if row.Level == protect.LevelIntegrated {
			b.ReportMetric(row.AvgCopies, "integrated-attack-copies")
		}
		if row.Level == protect.LevelSecureDealloc {
			b.ReportMetric(row.AvgCopies, "securedealloc-attack-copies")
		}
	}
}

// --- Micro-benchmarks of the substrate ---

func BenchmarkMachineBoot32MB(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewMachine(MachineConfig{MemoryMB: 32, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchKernel boots a bare 32 MiB kernel under the given dealloc policy
// with its free lists scrambled, the shape every driver's machine has
// before its servers start.
func benchKernel(b *testing.B, policy alloc.Policy) *kernel.Kernel {
	b.Helper()
	k, err := kernel.New(kernel.Config{MemPages: 32 * 1024 * 1024 / mem.PageSize, DeallocPolicy: policy})
	if err != nil {
		b.Fatal(err)
	}
	if err := k.ScrambleFreeMemory(1); err != nil {
		b.Fatal(err)
	}
	return k
}

// BenchmarkAllocFree measures one order-0 page through the buddy
// allocator under each dealloc policy: allocate, dirty 64 bytes, free —
// and, under secure-dealloc, the Tick that drains the deferred clear.
func BenchmarkAllocFree(b *testing.B) {
	for _, policy := range []alloc.Policy{alloc.PolicyRetain, alloc.PolicyZeroOnFree, alloc.PolicySecureDealloc} {
		b.Run(policy.String(), func(b *testing.B) {
			k := benchKernel(b, policy)
			a, dirt := k.Alloc(), make([]byte, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pn, err := a.AllocPage(mem.OwnerUser)
				if err != nil {
					b.Fatal(err)
				}
				if err := k.Mem().Write(pn.Base(), dirt); err != nil {
					b.Fatal(err)
				}
				if err := a.Free(pn); err != nil {
					b.Fatal(err)
				}
				a.Tick()
			}
		})
	}
}

// BenchmarkForkExit measures fork plus exit of a child of a 64-page
// process under zero-on-free: the child COW-shares every page and its
// exit drops 64 references without freeing a frame.
func BenchmarkForkExit(b *testing.B) {
	k := benchKernel(b, alloc.PolicyZeroOnFree)
	parent, err := k.Spawn(0, "server")
	if err != nil {
		b.Fatal(err)
	}
	for _, pages := range []int{16, 16, 32} {
		if _, err := k.VM().MapAnon(parent, pages, "data"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		child, err := k.Fork(parent, "worker")
		if err != nil {
			b.Fatal(err)
		}
		if err := k.Exit(child); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScrambleFreeMemory measures the boot-time free-list scramble of
// one fleet machine (fleet.Sized: 19,152 frames) under zero-on-free: every
// free page allocated, a 1/16 holdout kept, the rest freed (and cleared)
// in a seeded random order. The boot itself is not timed.
func BenchmarkScrambleFreeMemory(b *testing.B) {
	pages := fleet.Sized(40_000, 8, 1000, protect.LevelIntegrated, 2007).MemPages
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		k, err := kernel.New(kernel.Config{MemPages: pages, DeallocPolicy: alloc.PolicyZeroOnFree})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := k.ScrambleFreeMemory(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchScanMachine boots the shared 32 MiB scan-benchmark machine: an
// unprotected SSH server with 8 live connections.
func benchScanMachine(b *testing.B) (*Machine, *Key) {
	b.Helper()
	m, err := NewMachine(MachineConfig{MemoryMB: 32, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	key, err := m.InstallKey("/k.pem", 512)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := m.StartSSH(ProtectionNone, key.Path)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := srv.Connect(); err != nil {
			b.Fatal(err)
		}
	}
	return m, key
}

// BenchmarkMemoryScan32MB measures Machine.Scan as callers see it: the
// machine's per-key scanner is incremental, so with no writes between
// iterations each scan after the first re-walks no frame and costs one
// pass over the match bitmap plus the classification of the matches.
func BenchmarkMemoryScan32MB(b *testing.B) {
	m, key := benchScanMachine(b)
	b.ResetTimer()
	b.SetBytes(32 * 1024 * 1024)
	for i := 0; i < b.N; i++ {
		if got := m.Scan(key); got.Total == 0 {
			b.Fatal("scan found nothing")
		}
	}
}

// BenchmarkMemoryScanCold32MB measures the single-pass engine alone: a
// fresh scanner per iteration, every frame walked (what the old
// one-pass-per-pattern Scan paid on every call).
func BenchmarkMemoryScanCold32MB(b *testing.B) {
	m, key := benchScanMachine(b)
	b.ResetTimer()
	b.SetBytes(32 * 1024 * 1024)
	for i := 0; i < b.N; i++ {
		sc := scan.New(m.Kernel(), key.Patterns())
		if got := scan.Summarize(sc.Scan()); got.Total == 0 {
			b.Fatal("scan found nothing")
		}
	}
}

// BenchmarkMemoryScanDirty32MB measures the timeline-shaped workload: one
// page of memory is written between rescans, so the incremental scanner
// re-walks 1-2 frames out of 8192 per iteration. Its host cost is
// O(dirty blocks + matches): clean 64-frame blocks are ruled out by their
// block write generations, only the dirty block's frames pay the per-frame
// generation test, and the match list is rebuilt from the frames the match
// bitmap marks.
func BenchmarkMemoryScanDirty32MB(b *testing.B) {
	m, key := benchScanMachine(b)
	phys := m.Kernel().Mem()
	dirty := mem.PageNum(phys.NumPages() - 2).Base()
	payload := make([]byte, mem.PageSize)
	if got := m.Scan(key); got.Total == 0 { // prime the incremental cache
		b.Fatal("scan found nothing")
	}
	b.ResetTimer()
	b.SetBytes(32 * 1024 * 1024)
	for i := 0; i < b.N; i++ {
		payload[0] = byte(i)
		if err := phys.Write(dirty, payload); err != nil {
			b.Fatal(err)
		}
		if got := m.Scan(key); got.Total == 0 {
			b.Fatal("scan found nothing")
		}
	}
}

// BenchmarkMemoryScanDirtyFleetShape measures the rescan a scanned fleet
// pays on every machine at every tick: one machine of the 8-machine,
// 40,000-connection fleet (fleet.Sized: 19,152 frames), one Workers-1
// scanner over four tenants' keys (16 patterns), no key copy anywhere in
// memory, and one page written between rescans.
func BenchmarkMemoryScanDirtyFleetShape(b *testing.B) {
	cfg := fleet.Sized(40_000, 8, 1000, protect.LevelSealed, 2007)
	k, err := kernel.New(kernel.Config{MemPages: cfg.MemPages})
	if err != nil {
		b.Fatal(err)
	}
	var patterns []scan.Pattern
	for tenant := 0; tenant < 4; tenant++ {
		key, err := rsakey.Generate(stats.NewReader(int64(1+tenant)), 512)
		if err != nil {
			b.Fatal(err)
		}
		patterns = append(patterns, scan.PatternsFor(key)...)
	}
	sc := scan.NewWith(k, patterns, scan.Options{Workers: 1})
	phys := k.Mem()
	dirty := mem.PageNum(phys.NumPages() / 2).Base()
	payload := make([]byte, mem.PageSize)
	if got := sc.Scan(); len(got) != 0 { // prime the incremental cache
		b.Fatalf("fleet machine holds %d key copies, want none", len(got))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload[0] = byte(i)
		if err := phys.Write(dirty, payload); err != nil {
			b.Fatal(err)
		}
		if got := sc.Scan(); len(got) != 0 {
			b.Fatalf("rescan found %d key copies, want none", len(got))
		}
	}
}

// perLevelMachine boots the per-level connect benchmarks' 64 MB machine
// with a 512-bit key installed, returning the key's path.
func perLevelMachine(b *testing.B, level Protection) (*Machine, string) {
	b.Helper()
	m, err := NewMachine(MachineConfig{MemoryMB: 64, Protection: level, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	key, err := m.InstallKey("/k.pem", 512)
	if err != nil {
		b.Fatal(err)
	}
	return m, key.Path
}

// BenchmarkSSHConnectPerLevel measures one connect + disconnect — the
// re-exec or fork, the RSA-CRT handshake and the session state — at the
// paper's two endpoints and the sealed level.
func BenchmarkSSHConnectPerLevel(b *testing.B) {
	for _, level := range []Protection{ProtectionNone, ProtectionIntegrated, ProtectionSealed} {
		level := level
		b.Run(level.String(), func(b *testing.B) {
			m, keyPath := perLevelMachine(b, level)
			srv, err := m.StartSSH(level, keyPath)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, err := srv.Connect()
				if err != nil {
					b.Fatal(err)
				}
				if err := srv.Disconnect(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHTTPDConnectPerLevel is the prefork sibling: connect (TLS
// handshake in a worker), one 4 KiB request, disconnect.
func BenchmarkHTTPDConnectPerLevel(b *testing.B) {
	for _, level := range []Protection{ProtectionNone, ProtectionIntegrated, ProtectionSealed} {
		level := level
		b.Run(level.String(), func(b *testing.B) {
			m, keyPath := perLevelMachine(b, level)
			srv, err := m.StartApache(level, keyPath)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, err := srv.Connect()
				if err != nil {
					b.Fatal(err)
				}
				if err := srv.Request(id, 4096); err != nil {
					b.Fatal(err)
				}
				if err := srv.Disconnect(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTTYDumpAttack(b *testing.B) {
	m, err := NewMachine(MachineConfig{MemoryMB: 32, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	key, err := m.InstallKey("/k.pem", 512)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := m.StartSSH(ProtectionNone, key.Path)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := srv.Connect(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.RunTTYAttack(key, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExt2MkdirLeak(b *testing.B) {
	m, err := NewMachine(MachineConfig{MemoryMB: 64, Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	key, err := m.InstallKey("/k.pem", 512)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.RunExt2Attack(key, 100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadSSHBench(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := workload.RunSSHBench(workload.SSHBenchConfig{
			Level: protect.LevelIntegrated, Concurrency: 10, TotalTransfers: 200, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.TransactionRate, "sim-txn/s")
		}
	}
}

func BenchmarkKeyGeneration512(b *testing.B) {
	for i := 0; i < b.N; i++ {
		key, err := generateBenchKey(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		_ = key
	}
}

// generateBenchKey isolates the keygen dependency for the benchmark.
func generateBenchKey(seed int64) (any, error) {
	m, err := NewMachine(MachineConfig{MemoryMB: 1, Seed: seed, SkipScramble: true})
	if err != nil {
		return nil, err
	}
	return m.InstallKey("/k.pem", 512)
}

// --- Extension experiments ---

func BenchmarkCopyMinAblation(b *testing.B) {
	res := runEntry(b, "copymin").(*figures.CopyMinResult)
	for _, row := range res.Rows {
		if row.Name == "full alignment (application level)" {
			b.ReportMetric(row.PerConn, "aligned-growth/conn")
		}
	}
}

func BenchmarkHardwareEndpoint(b *testing.B) {
	res := runEntry(b, "hardware").(*figures.HardwareResult)
	b.ReportMetric(res.Rows[0].HalfDumpRate, "software-halfdump-rate")
	b.ReportMetric(res.Rows[1].HalfDumpRate, "hsm-halfdump-rate")
}

func BenchmarkLifetimeAnalysis(b *testing.B) {
	res := runEntry(b, "lifetime").(*figures.LifetimeResult)
	for _, row := range res.Rows {
		if row.Level == protect.LevelNone {
			b.ReportMetric(row.Stats.MeanUnallocatedTicks, "baseline-unalloc-dwell")
		}
		if row.Level == protect.LevelIntegrated {
			b.ReportMetric(row.Stats.MeanUnallocatedTicks, "integrated-unalloc-dwell")
		}
	}
}

func BenchmarkKeyfinderFactorScan(b *testing.B) {
	// Dump a busy machine at the integrated level once, then measure the
	// public-key-only search over the full image. The integrated level
	// leaves no PEM or DER in memory, only the aligned d, p and q, so the
	// search runs the PEM and DER walks to the end and the factor scan
	// makes the hit.
	m, err := NewMachine(MachineConfig{MemoryMB: 16, Seed: 40, Protection: ProtectionIntegrated})
	if err != nil {
		b.Fatal(err)
	}
	key, err := m.InstallKey("/k.pem", 512)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := m.StartSSH(ProtectionIntegrated, key.Path)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := srv.Connect(); err != nil {
			b.Fatal(err)
		}
	}
	image := m.DumpMemory()
	b.SetBytes(int64(len(image)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := RecoverKey(image, key, RecoveryOptions{MaxHits: 1})
		if !res.Success() {
			b.Fatal("recovery failed")
		}
		if res.Hits[0].Method != keyfinder.MethodFactor {
			b.Fatalf("recovered by %v, want the factor scan", res.Hits[0].Method)
		}
	}
}

func BenchmarkKeyfinderSearchSealed(b *testing.B) {
	// A full search, with no MaxHits, over the dump of a busy sealed
	// machine: nothing is recoverable, so the PEM, DER and factor walks
	// all run to the end of the 32 MiB image.
	m, err := NewMachine(MachineConfig{MemoryMB: 32, Seed: 42, Protection: ProtectionSealed})
	if err != nil {
		b.Fatal(err)
	}
	key, err := m.InstallKey("/k.pem", 512)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := m.StartSSH(ProtectionSealed, key.Path)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := srv.Connect(); err != nil {
			b.Fatal(err)
		}
	}
	image := m.DumpMemory()
	b.SetBytes(int64(len(image)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := RecoverKey(image, key, RecoveryOptions{FactorStride: 16}); res.Success() {
			b.Fatalf("recovered a key from a sealed dump: %+v", res.Hits)
		}
	}
}

func BenchmarkProtectionAudit(b *testing.B) {
	m, err := NewMachine(MachineConfig{MemoryMB: 16, Seed: 41, Protection: ProtectionIntegrated})
	if err != nil {
		b.Fatal(err)
	}
	key, err := m.InstallKey("/k.pem", 512)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := m.StartSSH(ProtectionIntegrated, key.Path)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := srv.Connect(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.VerifyProtection(key); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSwapSurface(b *testing.B) {
	res := runEntry(b, "swap").(*figures.SwapSurfaceResult)
	b.ReportMetric(float64(res.Rows[0].DeviceHits), "plain-device-hits")
	b.ReportMetric(float64(res.Rows[1].DeviceHits), "mlock-device-hits")
	b.ReportMetric(float64(res.Rows[2].DeviceHits), "encrypted-device-hits")
}
