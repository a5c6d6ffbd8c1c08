package httpd

import (
	"errors"
	"testing"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/hsm"
	"memshield/internal/kernel"
	"memshield/internal/kernel/alloc"
	"memshield/internal/protect"
	"memshield/internal/scan"
	"memshield/internal/stats"
)

const keyPath = "/etc/apache2/ssl/server.key"

type rig struct {
	k   *kernel.Kernel
	key *rsakey.PrivateKey
	sc  *scan.Scanner
}

func newRig(t *testing.T, level protect.Level) *rig {
	t.Helper()
	k, err := kernel.New(kernel.Config{
		MemPages:      8192,
		DeallocPolicy: level.KernelPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	key, err := rsakey.Generate(stats.NewReader(5150), 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.FS().WriteFile(keyPath, key.MarshalPEM()); err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, key: key, sc: scan.New(k, scan.PatternsFor(key))}
}

func (r *rig) start(t *testing.T, level protect.Level, mutate ...func(*Config)) *Server {
	t.Helper()
	cfg := Config{KeyPath: keyPath, Level: level, Seed: 3}
	for _, m := range mutate {
		m(&cfg)
	}
	s, err := Start(r.k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func (r *rig) summary() scan.Summary { return scan.Summarize(r.sc.Scan()) }

func TestStartUnprotectedShowsMultipleCopies(t *testing.T) {
	r := newRig(t, protect.LevelNone)
	s := r.start(t, protect.LevelNone)
	sum := r.summary()
	// Paper observation (1): the key appears multiple times at startup —
	// the live load plus the discarded first config pass, plus the PEM in
	// the page cache.
	if sum.ByPart[scan.PartD] != 2 || sum.ByPart[scan.PartP] != 2 || sum.ByPart[scan.PartQ] != 2 {
		t.Fatalf("startup parts = %v, want doubled d/p/q", sum.ByPart)
	}
	if sum.ByPart[scan.PartPEM] != 1 {
		t.Fatalf("PEM copies = %d, want 1", sum.ByPart[scan.PartPEM])
	}
	if s.Workers() != 5 {
		t.Fatalf("Workers = %d, want StartServers=5", s.Workers())
	}
	// All workers COW-share the parent's key: no per-worker copies yet.
	if sum.Total != 7 {
		t.Fatalf("startup total = %d, want 7", sum.Total)
	}
}

func TestProtectedStartSingleCopy(t *testing.T) {
	for _, level := range []protect.Level{protect.LevelApp, protect.LevelLibrary, protect.LevelIntegrated} {
		level := level
		t.Run(level.String(), func(t *testing.T) {
			r := newRig(t, level)
			s := r.start(t, level)
			sum := r.summary()
			wantPEM := 1
			if level.EvictsPEM() {
				wantPEM = 0
			}
			if sum.ByPart[scan.PartD] != 1 || sum.ByPart[scan.PartP] != 1 ||
				sum.ByPart[scan.PartQ] != 1 || sum.ByPart[scan.PartPEM] != wantPEM {
				t.Fatalf("startup parts = %v", sum.ByPart)
			}
			if s.Workers() != 5 {
				t.Fatal("worker pool wrong")
			}
		})
	}
}

func TestUnprotectedCopiesGrowWithActiveWorkers(t *testing.T) {
	r := newRig(t, protect.LevelNone)
	s := r.start(t, protect.LevelNone)
	base := r.summary().Total
	// Open 5 concurrent connections: each activates one worker whose
	// first handshake builds a Montgomery cache (p and q copies).
	var ids []int
	for i := 0; i < 5; i++ {
		id, err := s.Connect()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	grown := r.summary()
	// Each activated worker adds at least its two Montgomery-cache copies
	// of p and q; the COW break of the arena page it writes typically
	// duplicates neighbouring key chunks as well.
	if grown.Total < base+5*2 {
		t.Fatalf("copies with 5 active workers = %d, want >= %d", grown.Total, base+10)
	}
	// Closing and reopening reuses warm workers: no further growth.
	for _, id := range ids {
		if err := s.Disconnect(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Connect(); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.summary().Total; got != grown.Total {
		t.Fatalf("warm-worker reuse grew copies %d -> %d", grown.Total, got)
	}
}

func TestPoolGrowsBeyondStartServers(t *testing.T) {
	r := newRig(t, protect.LevelNone)
	s := r.start(t, protect.LevelNone)
	for i := 0; i < 8; i++ {
		if _, err := s.Connect(); err != nil {
			t.Fatal(err)
		}
	}
	if s.Workers() != 8 {
		t.Fatalf("Workers = %d, want 8", s.Workers())
	}
	if s.Stats().WorkersForked != 8 {
		t.Fatalf("WorkersForked = %d", s.Stats().WorkersForked)
	}
}

func TestMaxClientsRefusesConnections(t *testing.T) {
	r := newRig(t, protect.LevelNone)
	s := r.start(t, protect.LevelNone, func(c *Config) {
		c.StartServers = 2
		c.MaxClients = 3
	})
	for i := 0; i < 3; i++ {
		if _, err := s.Connect(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Connect(); !errors.Is(err, ErrBusy) {
		t.Fatalf("over MaxClients = %v", err)
	}
}

func TestMaintainSparesReapsAndLeavesGhosts(t *testing.T) {
	r := newRig(t, protect.LevelNone)
	s := r.start(t, protect.LevelNone, func(c *Config) {
		c.MaxSpareServers = 6
	})
	// Spike to 12 workers, then drain.
	var ids []int
	for i := 0; i < 12; i++ {
		id, err := s.Connect()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if err := s.Disconnect(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.MaintainSpares(); err != nil {
		t.Fatal(err)
	}
	if s.Workers() != 6 {
		t.Fatalf("Workers after reap = %d, want 6", s.Workers())
	}
	if s.Stats().WorkersReaped != 6 {
		t.Fatalf("WorkersReaped = %d", s.Stats().WorkersReaped)
	}
	// Reaped workers dropped their cache copies into unallocated memory.
	sum := r.summary()
	if sum.Unallocated == 0 {
		t.Fatal("reaped workers should leave unallocated copies")
	}
}

func TestMaintainSparesForksUpToMinSpare(t *testing.T) {
	r := newRig(t, protect.LevelNone)
	s := r.start(t, protect.LevelNone, func(c *Config) {
		c.StartServers = 2
		c.MinSpareServers = 4
	})
	if s.Workers() != 2 {
		t.Fatal("StartServers override failed")
	}
	if err := s.MaintainSpares(); err != nil {
		t.Fatal(err)
	}
	if s.Workers() != 4 {
		t.Fatalf("Workers = %d, want 4 after MinSpare fork", s.Workers())
	}
}

func TestProtectedConstantUnderLoadAndReaping(t *testing.T) {
	for _, level := range []protect.Level{protect.LevelLibrary, protect.LevelIntegrated} {
		level := level
		t.Run(level.String(), func(t *testing.T) {
			r := newRig(t, level)
			s := r.start(t, level, func(c *Config) { c.MaxSpareServers = 5 })
			base := r.summary().Total
			var ids []int
			for i := 0; i < 10; i++ {
				id, err := s.Connect()
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			if got := r.summary().Total; got != base {
				t.Fatalf("copies under load = %d, want %d", got, base)
			}
			for _, id := range ids {
				if err := s.Disconnect(id); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.MaintainSpares(); err != nil {
				t.Fatal(err)
			}
			sum := r.summary()
			if sum.Total != base || sum.Unallocated != 0 {
				t.Fatalf("after reap: total=%d unalloc=%d, want %d/0", sum.Total, sum.Unallocated, base)
			}
		})
	}
}

func TestRequestChurn(t *testing.T) {
	r := newRig(t, protect.LevelNone)
	s := r.start(t, protect.LevelNone)
	id, err := s.Connect()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Request(id, 100*1024); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Requests != 1 || st.BytesMoved != 100*1024 {
		t.Fatalf("stats = %+v", st)
	}
	if err := s.Request(999, 10); !errors.Is(err, ErrNoConn) {
		t.Fatalf("bad conn request = %v", err)
	}
}

func TestStopIntegratedLeavesNothing(t *testing.T) {
	r := newRig(t, protect.LevelIntegrated)
	s := r.start(t, protect.LevelIntegrated)
	for i := 0; i < 4; i++ {
		if _, err := s.Connect(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	if sum := r.summary(); sum.Total != 0 {
		t.Fatalf("integrated after stop: %d copies (%v)", sum.Total, sum.ByPart)
	}
	if err := s.Stop(); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("double stop = %v", err)
	}
}

func TestStopUnprotectedLeavesGhosts(t *testing.T) {
	r := newRig(t, protect.LevelNone)
	s := r.start(t, protect.LevelNone)
	for i := 0; i < 4; i++ {
		if _, err := s.Connect(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	sum := r.summary()
	if sum.Unallocated == 0 {
		t.Fatal("stopped server should leave unallocated copies")
	}
	if sum.ByPart[scan.PartPEM] != 1 || sum.Allocated != 1 {
		t.Fatalf("after stop: allocated=%d PEM=%d, want only cached PEM", sum.Allocated, sum.ByPart[scan.PartPEM])
	}
	if s.ActiveConnections() != 0 || s.Workers() != 0 {
		t.Fatal("teardown incomplete")
	}
}

func TestStartFailsWithoutKey(t *testing.T) {
	r := newRig(t, protect.LevelNone)
	if _, err := Start(r.k, Config{KeyPath: "/missing", Level: protect.LevelNone}); err == nil {
		t.Fatal("want error for missing key")
	}
}

func TestDisconnectUnknown(t *testing.T) {
	r := newRig(t, protect.LevelNone)
	s := r.start(t, protect.LevelNone)
	if err := s.Disconnect(42); !errors.Is(err, ErrNoConn) {
		t.Fatalf("disconnect unknown = %v", err)
	}
}

func TestHSMBackedApacheLeavesNoKeyInMemory(t *testing.T) {
	r := newRig(t, protect.LevelNone)
	device := hsm.New()
	slot, err := device.Import(r.key)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Start(r.k, Config{
		Level: protect.LevelNone,
		HSM:   &hsm.Slot{Module: device, ID: slot},
		Seed:  9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Workers() != 5 {
		t.Fatal("pool should still prefork")
	}
	var ids []int
	for i := 0; i < 8; i++ {
		id, err := s.Connect()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if sum := r.summary(); sum.Total != 0 {
		t.Fatalf("HSM-backed apache: %d copies in memory, want 0", sum.Total)
	}
	for _, id := range ids {
		if err := s.Disconnect(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.MaintainSpares(); err != nil {
		t.Fatal(err)
	}
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	if sum := r.summary(); sum.Total != 0 {
		t.Fatalf("after stop: %d copies", sum.Total)
	}
	if device.Ops() != 8 {
		t.Fatalf("device ops = %d, want 8", device.Ops())
	}
}

// TestConnectOutOfMemoryFailsClosed: on a tiny machine, a connection whose
// worker cannot be built refuses with an error chain naming
// alloc.ErrOutOfMemory — no panic — and the rolled-back worker leaks no
// key copies: the allocated d/p/q census after the failed attempt matches
// the one before it, and the server keeps serving. LevelNone is the level
// under test because its private-op caching makes every fresh worker's
// first handshake durably allocate Montgomery buffers (literal p and q
// copies) — the partially-built state that must not survive the rollback.
func TestConnectOutOfMemoryFailsClosed(t *testing.T) {
	k, err := kernel.New(kernel.Config{
		MemPages:      256,
		DeallocPolicy: protect.LevelNone.KernelPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	key, err := rsakey.Generate(stats.NewReader(5150), 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.FS().WriteFile(keyPath, key.MarshalPEM()); err != nil {
		t.Fatal(err)
	}
	sc := scan.New(k, scan.PatternsFor(key))
	s, err := Start(k, Config{KeyPath: keyPath, Level: protect.LevelNone, Seed: 3, MaxClients: 10000})
	if err != nil {
		t.Fatal(err)
	}
	census := func() map[scan.Part]int {
		counts := make(map[scan.Part]int)
		for _, m := range sc.Scan() {
			if m.Allocated {
				counts[m.Part]++
			}
		}
		return counts
	}
	var oomErr error
	var before map[scan.Part]int
	for i := 0; i < 2048; i++ {
		before = census()
		if _, err := s.Connect(); err != nil {
			oomErr = err
			break
		}
	}
	if oomErr == nil {
		t.Fatal("256-page machine never exhausted; shrink the config")
	}
	if !errors.Is(oomErr, alloc.ErrOutOfMemory) {
		t.Fatalf("connect at exhaustion = %v, want chain naming alloc.ErrOutOfMemory", oomErr)
	}
	after := census()
	for _, part := range []scan.Part{scan.PartD, scan.PartP, scan.PartQ} {
		if after[part] != before[part] {
			t.Fatalf("allocated %v copies %d -> %d across failed connect; partial state leaked",
				part, before[part], after[part])
		}
	}
	if !s.Running() {
		t.Fatal("failed connect must not kill the server")
	}
	if err := k.Alloc().CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := k.VM().CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestRequestAllocationCeiling gates the hot path on a count that does not
// depend on timing. The payload is filled in place in the server's scratch
// buffer, so a 4 KiB request allocates nothing of its own: levels whose
// heap keeps the freed buffer allocate 0 objects per op. At the aligned
// levels the free trims the heap top and the next request re-maps it; the
// re-map itself allocates nothing (page-table entries and VMAs are values
// in slices that keep their capacity), so the whole remaining count is the
// libc heap's new arena and chunk list, gated at its measured 3.
func TestRequestAllocationCeiling(t *testing.T) {
	const ceiling = 3
	for _, level := range protect.All() {
		r := newRig(t, level)
		s := r.start(t, level)
		id, err := s.Connect()
		if err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(50, func() {
			if err := s.Request(id, 4096); err != nil {
				t.Fatal(err)
			}
		})
		if n > ceiling || (level == protect.LevelNone && n != 0) {
			t.Errorf("%v: 4 KiB Request allocated %v objects per op (ceiling %d, 0 at level none)", level, n, ceiling)
		}
	}
}
