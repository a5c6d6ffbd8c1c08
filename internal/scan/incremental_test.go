package scan

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/kernel"
	"memshield/internal/kernel/alloc"
	"memshield/internal/mem"
	"memshield/internal/stats"
)

// randPattern returns n random non-zero bytes with a fixed leading byte,
// distinctive enough never to occur by chance in the test's memory.
func randPattern(r *rand.Rand, lead byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(1 + r.Intn(255))
	}
	p[0] = lead
	return p
}

// TestIncrementalMatchesColdUnderRandomOps is the differential property
// behind block skipping and the match bitmap: under seeded random
// sequences of content writes, alloc/free and reverse-map changes, the
// scanner carried across every operation returns exactly what a fresh
// cold scanner returns, and every Scan accounts for each frame once as
// scanned or cached. The memory's page count is not a multiple of
// mem.BlockFrames, and the operations aim at the last frames of a block
// (whose windows reach into the next block) and at the partial last block.
func TestIncrementalMatchesColdUnderRandomOps(t *testing.T) {
	const pages = 4*mem.BlockFrames + 37
	seeds, ops := 6, 40
	if testing.Short() {
		seeds, ops = 2, 25
	}
	// The longest pattern sets span: 1 frame for the short set, 2 for
	// the long one.
	for _, set := range []struct {
		name    string
		longLen int
	}{{"short", 24}, {"long", 2*mem.PageSize + 100}} {
		for _, workers := range []int{1, 2, 3, 7} {
			for seed := int64(0); seed < int64(seeds); seed++ {
				runRandomOps(t, set.name, pages, set.longLen, workers, seed, ops)
			}
		}
	}
}

func runRandomOps(t *testing.T, name string, pages, longLen, workers int, seed int64, ops int) {
	t.Helper()
	policy := alloc.PolicyRetain
	if seed%2 == 1 {
		policy = alloc.PolicyZeroOnFree
	}
	k, err := kernel.New(kernel.Config{MemPages: pages, DeallocPolicy: policy})
	if err != nil {
		t.Fatal(err)
	}
	m, a := k.Mem(), k.Alloc()
	r := rand.New(rand.NewSource(seed))
	pats := []Pattern{
		{Part: PartD, Bytes: randPattern(r, 0xD1, 24)},
		{Part: PartP, Bytes: randPattern(r, 0xD1, 40)}, // shares D's first byte
		{Part: PartQ, Bytes: randPattern(r, 0xE7, longLen)},
	}
	sc := NewWith(k, pats, Options{Workers: workers})
	span := sc.span
	step := 0
	check := func(what string) {
		t.Helper()
		step++
		before := sc.Stats()
		got := sc.Scan()
		after := sc.Stats()
		if d := (after.FramesScanned - before.FramesScanned) + (after.FramesCached - before.FramesCached); d != pages {
			t.Fatalf("%s workers=%d seed=%d step %d (%s): scanned+cached = %d, want %d",
				name, workers, seed, step, what, d, pages)
		}
		for f := range sc.cache {
			if bit := sc.hasMatch[f/64]>>(f%64)&1 == 1; bit != (len(sc.cache[f].matches) > 0) {
				t.Fatalf("%s workers=%d seed=%d step %d (%s): frame %d match bit %v, %d cached matches",
					name, workers, seed, step, what, f, bit, len(sc.cache[f].matches))
			}
		}
		want := NewWith(k, pats, Options{Workers: 1}).Scan()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s workers=%d seed=%d step %d (%s): incremental scan\n%v\nwant cold scan\n%v",
				name, workers, seed, step, what, got, want)
		}
	}
	write := func(addr mem.Addr, b []byte) {
		t.Helper()
		if int(addr)+len(b) > m.Size() {
			return // a plant near the end that would not fit
		}
		if err := m.Write(addr, b); err != nil {
			t.Fatal(err)
		}
	}
	pick := func() []byte { return pats[r.Intn(len(pats))].Bytes }
	lastBlock := mem.PageNum(pages / mem.BlockFrames * mem.BlockFrames)
	var held []mem.PageNum

	check("cold")
	for op := 0; op < ops; op++ {
		switch r.Intn(10) {
		case 0: // plant anywhere
			p := pick()
			write(mem.Addr(r.Intn(m.Size()-len(p)+1)), p)
			check("plant")
		case 1: // lookahead: a match starting in the last span frames of a
			// block is completed by a write that lands only in the next block
			p := pick()
			b := 1 + r.Intn(pages/mem.BlockFrames)
			boundary := mem.PageNum(b * mem.BlockFrames).Base()
			h := 1 + r.Intn(min(len(p)-1, span*mem.PageSize))
			write(boundary-mem.Addr(h), p[:h])
			check("lookahead head")
			write(boundary, p[h:])
			check("lookahead tail")
		case 2: // plant in the partial last block
			p := pick()
			lo := int(lastBlock.Base())
			write(mem.Addr(lo+r.Intn(m.Size()-lo)), p)
			check("partial block")
		case 3:
			n := r.Intn(2 * mem.PageSize)
			if err := m.Zero(mem.Addr(r.Intn(m.Size()-n+1)), n); err != nil {
				t.Fatal(err)
			}
			check("zero")
		case 4:
			if err := m.ZeroPage(mem.PageNum(r.Intn(pages))); err != nil {
				t.Fatal(err)
			}
			check("zero page")
		case 5:
			if err := m.CopyPage(mem.PageNum(r.Intn(pages)), mem.PageNum(r.Intn(pages))); err != nil {
				t.Fatal(err)
			}
			check("copy page")
		case 6:
			pn, err := a.AllocPages(r.Intn(3), mem.OwnerUser)
			if err == nil {
				held = append(held, pn)
			}
			check("alloc")
		case 7:
			if len(held) > 0 {
				i := r.Intn(len(held))
				if err := a.Free(held[i]); err != nil {
					t.Fatal(err)
				}
				held = append(held[:i], held[i+1:]...)
			}
			check("free")
		case 8:
			fr := m.Frame(mem.PageNum(r.Intn(pages)))
			if pid := 1 + r.Intn(4); fr.HasMapper(pid) {
				fr.RemoveMapper(pid)
			} else {
				fr.AddMapper(pid)
			}
			check("mapper")
		case 9:
			check("idle")
		}
	}
}

// fleetFrames is the physical size of one machine of an 8-machine,
// 40,000-connection fleet (fleet.Sized), the scanner's hottest shape:
// 299 full blocks and a 16-frame partial one.
const fleetFrames = 19152

// fleetScanner boots a fleet-sized machine and a Workers-1 scanner for
// four tenants' keys (16 patterns) none of which is in memory.
func fleetScanner(t testing.TB) (*mem.Memory, *Scanner) {
	t.Helper()
	k, err := kernel.New(kernel.Config{MemPages: fleetFrames, DeallocPolicy: alloc.PolicyRetain})
	if err != nil {
		t.Fatal(err)
	}
	var pats []Pattern
	for tenant := 0; tenant < 4; tenant++ {
		key, err := rsakey.Generate(stats.NewReader(int64(100+tenant)), 512)
		if err != nil {
			t.Fatal(err)
		}
		pats = append(pats, PatternsFor(key)...)
	}
	sc := NewWith(k, pats, Options{Workers: 1})
	if got := sc.Scan(); len(got) != 0 {
		t.Fatalf("fleet machine: %d matches, want none", len(got))
	}
	return k.Mem(), sc
}

// TestRescanWorkIsPerDirtyBlock gates the incremental scan's host work
// without timing: after a one-page write, the rescan computes the window
// generation sum of at most two blocks' frames plus span (the written
// block, the preceding block when the write lands in the frames its
// windows reach, and the frame a dirty run stops at) — not of every frame.
func TestRescanWorkIsPerDirtyBlock(t *testing.T) {
	m, sc := fleetScanner(t)
	payload := bytes.Repeat([]byte{0x5A}, mem.PageSize)
	bound := 2*mem.BlockFrames + sc.span
	for _, pn := range []int{0, 1, 63, 64, 65, 127, 4000, 9600, fleetFrames - 17, fleetFrames - 16, fleetFrames - 1} {
		payload[0]++
		if err := m.Write(mem.PageNum(pn).Base(), payload); err != nil {
			t.Fatal(err)
		}
		before, beforeStats := sc.gensInspected, sc.Stats()
		if got := sc.Scan(); len(got) != 0 {
			t.Fatalf("frame %d: %d matches, want none", pn, len(got))
		}
		if d := sc.gensInspected - before; d < 1 || d > bound {
			t.Errorf("write to frame %d: rescan inspected %d frame windows, want 1..%d", pn, d, bound)
		}
		st := sc.Stats()
		if d := st.FramesScanned - beforeStats.FramesScanned; d < 1 || d > 2 {
			t.Errorf("write to frame %d: rescan re-walked %d frames, want 1..2", pn, d)
		}
		if d := (st.FramesScanned - beforeStats.FramesScanned) + (st.FramesCached - beforeStats.FramesCached); d != fleetFrames {
			t.Errorf("write to frame %d: scanned+cached = %d, want %d", pn, d, fleetFrames)
		}
	}
}

// TestRescanAllocations pins the Go allocations of the two incremental
// shapes on a fleet-sized machine with no key copies: an idle rescan
// allocates nothing, and a one-page-dirty rescan at Workers 1 stays within
// the 8 objects of the per-frame walk it replaced.
func TestRescanAllocations(t *testing.T) {
	m, sc := fleetScanner(t)
	if n := testing.AllocsPerRun(20, func() { sc.Scan() }); n != 0 {
		t.Errorf("idle rescan: %v allocs, want 0", n)
	}
	payload := make([]byte, mem.PageSize)
	dirty := mem.PageNum(fleetFrames / 2).Base()
	n := testing.AllocsPerRun(20, func() {
		payload[0]++
		if err := m.Write(dirty, payload); err != nil {
			t.Fatal(err)
		}
		sc.Scan()
	})
	if n > 8 {
		t.Errorf("one-page-dirty rescan: %v allocs, want <= 8", n)
	}
}
