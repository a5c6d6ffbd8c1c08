package sshd

import (
	"errors"
	"testing"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/kernel"
	"memshield/internal/kernel/alloc"
	"memshield/internal/protect"
	"memshield/internal/scan"
	"memshield/internal/stats"
)

const keyPath = "/etc/ssh/ssh_host_rsa_key"

// rig is a booted machine with a host key on disk and a scanner for it.
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
	key, err := rsakey.Generate(stats.NewReader(2024), 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.FS().WriteFile(keyPath, key.MarshalPEM()); err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, key: key, sc: scan.New(k, scan.PatternsFor(key))}
}

func (r *rig) start(t *testing.T, level protect.Level) *Server {
	t.Helper()
	s, err := Start(r.k, Config{KeyPath: keyPath, Level: level, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func (r *rig) summary() scan.Summary { return scan.Summarize(r.sc.Scan()) }

func TestStartUnprotectedBaseline(t *testing.T) {
	r := newRig(t, protect.LevelNone)
	s := r.start(t, protect.LevelNone)
	sum := r.summary()
	// Master's d, p, q BIGNUMs + the PEM file in the page cache.
	if sum.ByPart[scan.PartD] != 1 || sum.ByPart[scan.PartP] != 1 ||
		sum.ByPart[scan.PartQ] != 1 || sum.ByPart[scan.PartPEM] != 1 {
		t.Fatalf("baseline parts = %v", sum.ByPart)
	}
	if sum.Unallocated != 0 {
		t.Fatalf("unallocated at start = %d, want 0", sum.Unallocated)
	}
	if !s.Running() || s.MasterPID() == 0 {
		t.Fatal("server state wrong")
	}
}

func TestUnprotectedCopiesGrowPerConnection(t *testing.T) {
	r := newRig(t, protect.LevelNone)
	s := r.start(t, protect.LevelNone)
	base := r.summary().Total
	var ids []int
	for i := 0; i < 4; i++ {
		id, err := s.Connect()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	grown := r.summary()
	// Each re-exec'd child: 3 BIGNUMs + 2 Montgomery cache copies = 5.
	want := base + 4*5
	if grown.Total != want {
		t.Fatalf("copies with 4 conns = %d, want %d", grown.Total, want)
	}
	if s.ActiveConnections() != 4 {
		t.Fatal("ActiveConnections wrong")
	}
	// Disconnect all: copies persist, now (partially) unallocated.
	for _, id := range ids {
		if err := s.Disconnect(id); err != nil {
			t.Fatal(err)
		}
	}
	after := r.summary()
	if after.Unallocated == 0 {
		t.Fatal("closed connections should leave unallocated copies")
	}
	if s.Stats().Disconnects != 4 || s.Stats().Handshakes != 4 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

func TestProtectedLevelsKeepConstantCopies(t *testing.T) {
	for _, level := range []protect.Level{protect.LevelApp, protect.LevelLibrary, protect.LevelIntegrated} {
		level := level
		t.Run(level.String(), func(t *testing.T) {
			r := newRig(t, level)
			s := r.start(t, level)
			base := r.summary()
			// d, p, q exactly once; PEM only if not evicted.
			wantPEM := 1
			if level.EvictsPEM() {
				wantPEM = 0
			}
			if base.ByPart[scan.PartD] != 1 || base.ByPart[scan.PartP] != 1 ||
				base.ByPart[scan.PartQ] != 1 || base.ByPart[scan.PartPEM] != wantPEM {
				t.Fatalf("baseline parts = %v", base.ByPart)
			}
			var ids []int
			for i := 0; i < 6; i++ {
				id, err := s.Connect()
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			grown := r.summary()
			if grown.Total != base.Total {
				t.Fatalf("copies went %d -> %d under %v; want constant", base.Total, grown.Total, level)
			}
			for _, id := range ids {
				if err := s.Disconnect(id); err != nil {
					t.Fatal(err)
				}
			}
			after := r.summary()
			if after.Unallocated != 0 {
				t.Fatalf("unallocated = %d after disconnects under %v", after.Unallocated, level)
			}
			if after.Total != base.Total {
				t.Fatalf("copies after churn = %d, want %d", after.Total, base.Total)
			}
		})
	}
}

func TestKernelLevelKillsUnallocatedOnly(t *testing.T) {
	r := newRig(t, protect.LevelKernel)
	s := r.start(t, protect.LevelKernel)
	var ids []int
	for i := 0; i < 4; i++ {
		id, err := s.Connect()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	grown := r.summary()
	// Allocated memory still floods (no copy minimization).
	if grown.Allocated <= 4 {
		t.Fatalf("allocated copies = %d, want flood", grown.Allocated)
	}
	if grown.Unallocated != 0 {
		t.Fatalf("unallocated = %d, want 0 under zero-on-free", grown.Unallocated)
	}
	for _, id := range ids {
		if err := s.Disconnect(id); err != nil {
			t.Fatal(err)
		}
	}
	after := r.summary()
	if after.Unallocated != 0 {
		t.Fatalf("unallocated after disconnect = %d, want 0", after.Unallocated)
	}
	// Only the master's live copies remain.
	if after.Allocated != 4 { // d, p, q, PEM
		t.Fatalf("allocated after disconnect = %d, want 4", after.Allocated)
	}
}

func TestStopUnprotectedLeavesGhosts(t *testing.T) {
	r := newRig(t, protect.LevelNone)
	s := r.start(t, protect.LevelNone)
	if _, err := s.Connect(); err != nil {
		t.Fatal(err)
	}
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	sum := r.summary()
	// Paper observation (5): after the server stops, d, p, q exist only in
	// unallocated memory, except the PEM file in the page cache.
	if sum.Unallocated == 0 {
		t.Fatal("stopped server should leave unallocated copies")
	}
	if sum.ByPart[scan.PartPEM] != 1 {
		t.Fatal("PEM should remain in the page cache after stop")
	}
	if sum.Allocated != 1 { // only the PEM page-cache copy
		t.Fatalf("allocated after stop = %d, want 1 (PEM)", sum.Allocated)
	}
	if s.Running() {
		t.Fatal("server should report stopped")
	}
	if err := s.Stop(); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("double stop = %v", err)
	}
	if _, err := s.Connect(); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("connect after stop = %v", err)
	}
}

func TestStopIntegratedLeavesNothing(t *testing.T) {
	r := newRig(t, protect.LevelIntegrated)
	s := r.start(t, protect.LevelIntegrated)
	for i := 0; i < 3; i++ {
		if _, err := s.Connect(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	sum := r.summary()
	if sum.Total != 0 {
		t.Fatalf("integrated after stop: %d copies remain (%v)", sum.Total, sum.ByPart)
	}
}

func TestTransferChurnsWithoutKeyCopies(t *testing.T) {
	r := newRig(t, protect.LevelApp)
	s := r.start(t, protect.LevelApp)
	id, err := s.Connect()
	if err != nil {
		t.Fatal(err)
	}
	before := r.summary().Total
	if err := s.Transfer(id, 300*1024); err != nil {
		t.Fatal(err)
	}
	if got := r.summary().Total; got != before {
		t.Fatalf("transfer changed copy count %d -> %d", before, got)
	}
	if s.Stats().BytesMoved != 300*1024 {
		t.Fatalf("BytesMoved = %d", s.Stats().BytesMoved)
	}
	if err := s.Transfer(999, 10); !errors.Is(err, ErrNoConn) {
		t.Fatalf("transfer on bad conn = %v", err)
	}
	if err := s.Disconnect(999); !errors.Is(err, ErrNoConn) {
		t.Fatalf("disconnect bad conn = %v", err)
	}
}

func TestStartFailsWithoutKeyFile(t *testing.T) {
	r := newRig(t, protect.LevelNone)
	if _, err := Start(r.k, Config{KeyPath: "/nonexistent", Level: protect.LevelNone}); err == nil {
		t.Fatal("want error for missing key file")
	}
}

func TestHandshakeComputesRealRSA(t *testing.T) {
	// The handshake decrypts with the actual key bytes from simulated
	// memory; Connect succeeding at all proves the round trip, and the
	// stats count it.
	r := newRig(t, protect.LevelNone)
	s := r.start(t, protect.LevelNone)
	if _, err := s.Connect(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Handshakes != 1 {
		t.Fatal("handshake not counted")
	}
}

// TestConnectOutOfMemoryFailsClosed: on a tiny machine, a new connection
// that cannot be built refuses with an error chain naming
// alloc.ErrOutOfMemory — no panic — and the partially built connection
// state leaks no key copies: the allocated d/p/q census after the failed
// attempt is exactly what it was before, and the server keeps serving.
func TestConnectOutOfMemoryFailsClosed(t *testing.T) {
	k, err := kernel.New(kernel.Config{
		MemPages:      512,
		DeallocPolicy: protect.LevelLibrary.KernelPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	key, err := rsakey.Generate(stats.NewReader(2024), 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.FS().WriteFile(keyPath, key.MarshalPEM()); err != nil {
		t.Fatal(err)
	}
	sc := scan.New(k, scan.PatternsFor(key))
	s, err := Start(k, Config{KeyPath: keyPath, Level: protect.LevelLibrary, Seed: 7})
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
	for i := 0; i < 256; i++ {
		before = census()
		if _, err := s.Connect(); err != nil {
			oomErr = err
			break
		}
	}
	if oomErr == nil {
		t.Fatal("512-page machine never exhausted; shrink the config")
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

// TestTransferAllocatesNothing gates the hot path on a count that does not
// depend on timing: with the payload filled in place in the server's
// scratch buffer, a 4 KiB transfer on an open connection allocates no Go
// object at any level.
func TestTransferAllocatesNothing(t *testing.T) {
	for _, level := range protect.All() {
		r := newRig(t, level)
		s := r.start(t, level)
		id, err := s.Connect()
		if err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(50, func() {
			if err := s.Transfer(id, 4096); err != nil {
				t.Fatal(err)
			}
		})
		if n != 0 {
			t.Errorf("%v: 4 KiB Transfer allocated %v objects per op, want 0", level, n)
		}
	}
}
