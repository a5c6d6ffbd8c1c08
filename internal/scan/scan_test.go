package scan

import (
	"bytes"
	"testing"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/kernel"
	"memshield/internal/kernel/alloc"
	"memshield/internal/libc"
	"memshield/internal/mem"
	"memshield/internal/ssl"
	"memshield/internal/stats"
)

func testKey(t *testing.T) *rsakey.PrivateKey {
	t.Helper()
	key, err := rsakey.Generate(stats.NewReader(1234), 512)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func bootKernel(t *testing.T) *kernel.Kernel {
	t.Helper()
	k, err := kernel.New(kernel.Config{MemPages: 2048, DeallocPolicy: alloc.PolicyRetain})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestPatternsFor(t *testing.T) {
	key := testKey(t)
	ps := PatternsFor(key)
	if len(ps) != 4 {
		t.Fatalf("patterns = %d, want 4", len(ps))
	}
	want := map[Part][]byte{
		PartD:   key.D.Bytes(),
		PartP:   key.P.Bytes(),
		PartQ:   key.Q.Bytes(),
		PartPEM: key.MarshalPEM(),
	}
	for _, p := range ps {
		if !bytes.Equal(p.Bytes, want[p.Part]) {
			t.Errorf("pattern %v bytes wrong", p.Part)
		}
	}
}

func TestScanFindsLiveKeyAndClassifiesAllocated(t *testing.T) {
	k := bootKernel(t)
	key := testKey(t)
	pid, err := k.Spawn(0, "server")
	if err != nil {
		t.Fatal(err)
	}
	heap := libc.New(k, pid)
	r, err := ssl.D2iPrivateKey(heap, key.MarshalPEM())
	if err != nil {
		t.Fatal(err)
	}
	sc := New(k, PatternsFor(key))
	matches := sc.Scan()
	sum := Summarize(matches)
	// d, p, q live as BIGNUMs (PEM never touched the page cache — it came
	// in via a host-side byte slice and was cleansed from the heap).
	if sum.ByPart[PartD] != 1 || sum.ByPart[PartP] != 1 || sum.ByPart[PartQ] != 1 {
		t.Fatalf("part counts = %v", sum.ByPart)
	}
	if sum.Allocated != sum.Total || sum.Unallocated != 0 {
		t.Fatalf("alloc/unalloc = %d/%d, want all allocated", sum.Allocated, sum.Unallocated)
	}
	// Reverse map attributes the matches to the server process.
	for _, m := range matches {
		if m.Owner != mem.OwnerUser {
			t.Errorf("owner = %v, want user", m.Owner)
		}
		foundPID := false
		for _, p := range m.PIDs {
			if p == pid {
				foundPID = true
			}
		}
		if !foundPID {
			t.Errorf("match %v not attributed to pid %d (PIDs %v)", m.Part, pid, m.PIDs)
		}
	}
	_ = r
}

func TestScanClassifiesUnallocatedAfterExit(t *testing.T) {
	k := bootKernel(t)
	key := testKey(t)
	pid, _ := k.Spawn(0, "victim")
	heap := libc.New(k, pid)
	if _, err := ssl.D2iPrivateKey(heap, key.MarshalPEM()); err != nil {
		t.Fatal(err)
	}
	if err := k.Exit(pid); err != nil {
		t.Fatal(err)
	}
	sum := Summarize(New(k, PatternsFor(key)).Scan())
	if sum.Total == 0 {
		t.Fatal("stale copies should survive exit under retain policy")
	}
	if sum.Allocated != 0 {
		t.Fatalf("allocated = %d, want 0 after exit", sum.Allocated)
	}
	if sum.Unallocated != sum.Total {
		t.Fatal("all matches should be unallocated")
	}
}

func TestScanSeesPEMInPageCache(t *testing.T) {
	k := bootKernel(t)
	key := testKey(t)
	pem := key.MarshalPEM()
	if err := k.FS().WriteFile("/etc/key.pem", pem); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ReadFile("/etc/key.pem", 0); err != nil {
		t.Fatal(err)
	}
	matches := New(k, PatternsFor(key)).Scan()
	sum := Summarize(matches)
	if sum.ByPart[PartPEM] != 1 {
		t.Fatalf("PEM matches = %d, want 1", sum.ByPart[PartPEM])
	}
	for _, m := range matches {
		if m.Part == PartPEM && m.Owner != mem.OwnerPageCache {
			t.Fatalf("PEM owner = %v, want pagecache", m.Owner)
		}
	}
}

func TestScanCleanMachine(t *testing.T) {
	k := bootKernel(t)
	key := testKey(t)
	if got := New(k, PatternsFor(key)).Scan(); len(got) != 0 {
		t.Fatalf("clean machine scan = %d matches", len(got))
	}
}

func TestSummarizeEmpty(t *testing.T) {
	sum := Summarize(nil)
	if sum.Total != 0 || sum.Allocated != 0 || sum.Unallocated != 0 {
		t.Fatal("empty summary wrong")
	}
}

func TestCountInBuffer(t *testing.T) {
	key := testKey(t)
	ps := PatternsFor(key)
	var buf []byte
	buf = append(buf, []byte("prefix")...)
	buf = append(buf, key.P.Bytes()...)
	buf = append(buf, []byte("mid")...)
	buf = append(buf, key.P.Bytes()...)
	buf = append(buf, key.D.Bytes()...)
	sum := CountInBuffer(buf, ps)
	if sum.ByPart[PartP] != 2 || sum.ByPart[PartD] != 1 || sum.Total != 3 {
		t.Fatalf("CountInBuffer = %+v", sum)
	}
	if CountInBuffer([]byte("nothing here"), ps).Total != 0 {
		t.Fatal("clean buffer count should be 0")
	}
	empty := CountInBuffer(nil, ps)
	if empty.Total != 0 {
		t.Fatal("empty buffer count should be 0")
	}
}

func TestPartString(t *testing.T) {
	for p, want := range map[Part]string{PartD: "d", PartP: "p", PartQ: "q", PartPEM: "pem"} {
		if p.String() != want {
			t.Errorf("%v.String() = %q", p, p.String())
		}
	}
	if Part(42).String() == "" {
		t.Error("unknown part should format")
	}
}

func TestScanIgnoresEmptyPatterns(t *testing.T) {
	k := bootKernel(t)
	sc := New(k, []Pattern{{Part: PartD, Bytes: nil}})
	if got := sc.Scan(); len(got) != 0 {
		t.Fatal("empty pattern must match nothing")
	}
}
