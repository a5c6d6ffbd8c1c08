package mem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, pages int) *Memory {
	t.Helper()
	m, err := New(pages)
	if err != nil {
		t.Fatalf("New(%d): %v", pages, err)
	}
	return m
}

func TestNewRejectsNonPositive(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		if _, err := New(n); err == nil {
			t.Errorf("New(%d): want error, got nil", n)
		}
	}
}

func TestNewBootsFreeAndZero(t *testing.T) {
	m := mustNew(t, 8)
	if got := m.NumPages(); got != 8 {
		t.Fatalf("NumPages = %d, want 8", got)
	}
	if got := m.Size(); got != 8*PageSize {
		t.Fatalf("Size = %d, want %d", got, 8*PageSize)
	}
	if got := m.CountState(FrameFree); got != 8 {
		t.Fatalf("free frames = %d, want 8", got)
	}
	for pn := PageNum(0); int(pn) < m.NumPages(); pn++ {
		if !m.PageIsZero(pn) {
			t.Fatalf("page %d not zero at boot", pn)
		}
	}
}

func TestAddrConversions(t *testing.T) {
	tests := []struct {
		addr   Addr
		page   PageNum
		offset int
	}{
		{0, 0, 0},
		{1, 0, 1},
		{PageSize - 1, 0, PageSize - 1},
		{PageSize, 1, 0},
		{3*PageSize + 17, 3, 17},
	}
	for _, tt := range tests {
		if got := tt.addr.Page(); got != tt.page {
			t.Errorf("Addr(%d).Page() = %d, want %d", tt.addr, got, tt.page)
		}
		if got := tt.addr.Offset(); got != tt.offset {
			t.Errorf("Addr(%d).Offset() = %d, want %d", tt.addr, got, tt.offset)
		}
	}
	if got := PageNum(5).Base(); got != Addr(5*PageSize) {
		t.Errorf("PageNum(5).Base() = %d, want %d", got, 5*PageSize)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := mustNew(t, 4)
	want := []byte("the quick brown fox")
	if err := m.Write(100, want); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(100, len(want))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Read = %q, want %q", got, want)
	}
}

func TestWriteAcrossPageBoundary(t *testing.T) {
	m := mustNew(t, 2)
	want := bytes.Repeat([]byte{0xAB}, 100)
	addr := Addr(PageSize - 50)
	if err := m.Write(addr, want); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(addr, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("cross-boundary write not read back")
	}
}

func TestOutOfRangeAccess(t *testing.T) {
	m := mustNew(t, 1)
	if _, err := m.Read(Addr(PageSize), 1); err == nil {
		t.Error("Read past end: want error")
	}
	if _, err := m.Read(Addr(PageSize-1), 2); err == nil {
		t.Error("Read straddling end: want error")
	}
	if err := m.Write(Addr(PageSize), []byte{1}); err == nil {
		t.Error("Write past end: want error")
	}
	if err := m.Zero(Addr(PageSize-1), 2); err == nil {
		t.Error("Zero straddling end: want error")
	}
	if _, err := m.View(Addr(PageSize), 1); err == nil {
		t.Error("View past end: want error")
	}
	if _, err := m.Read(5, -1); err == nil {
		t.Error("negative length read: want error")
	}
}

func TestZeroAndPageIsZero(t *testing.T) {
	m := mustNew(t, 2)
	if err := m.Write(10, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if m.PageIsZero(0) {
		t.Fatal("page 0 should be dirty")
	}
	if err := m.ZeroPage(0); err != nil {
		t.Fatal(err)
	}
	if !m.PageIsZero(0) {
		t.Fatal("page 0 should be zero after ZeroPage")
	}
	if err := m.ZeroPage(99); err == nil {
		t.Error("ZeroPage(invalid): want error")
	}
	if m.PageIsZero(99) {
		t.Error("PageIsZero(invalid) should be false")
	}
}

func TestZeroPartialRange(t *testing.T) {
	m := mustNew(t, 1)
	if err := m.Write(0, bytes.Repeat([]byte{0xFF}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := m.Zero(16, 32); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Read(0, 64)
	for i, b := range got {
		wantZero := i >= 16 && i < 48
		if wantZero && b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
		if !wantZero && b != 0xFF {
			t.Fatalf("byte %d = %#x, want 0xFF", i, b)
		}
	}
}

func TestCopyPage(t *testing.T) {
	m := mustNew(t, 3)
	src := bytes.Repeat([]byte{0x5A}, PageSize)
	if err := m.Write(PageNum(1).Base(), src); err != nil {
		t.Fatal(err)
	}
	if err := m.CopyPage(2, 1); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Read(PageNum(2).Base(), PageSize)
	if !bytes.Equal(got, src) {
		t.Fatal("CopyPage did not copy contents")
	}
	if err := m.CopyPage(7, 1); err == nil {
		t.Error("CopyPage to invalid dst: want error")
	}
	if err := m.CopyPage(0, 7); err == nil {
		t.Error("CopyPage from invalid src: want error")
	}
}

func TestViewAliasesLiveMemory(t *testing.T) {
	m := mustNew(t, 1)
	v, err := m.View(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Write(0, []byte("secret!!")); err != nil {
		t.Fatal(err)
	}
	if string(v) != "secret!!" {
		t.Fatalf("View = %q, want live view of writes", v)
	}
}

func TestFindAll(t *testing.T) {
	m := mustNew(t, 4)
	pat := []byte("KEYPART")
	locs := []Addr{3, 500, Addr(PageSize) + 7, Addr(3*PageSize) - 3}
	for _, a := range locs {
		if err := m.Write(a, pat); err != nil {
			t.Fatal(err)
		}
	}
	got := m.FindAll(pat)
	if len(got) != len(locs) {
		t.Fatalf("FindAll found %d, want %d: %v", len(got), len(locs), got)
	}
	for i, a := range locs {
		if got[i] != a {
			t.Errorf("match %d at %d, want %d", i, got[i], a)
		}
	}
	if got := m.FindAll(nil); got != nil {
		t.Error("FindAll(nil) should return nil")
	}
	if got := m.FindAll([]byte("ABSENT-PATTERN")); len(got) != 0 {
		t.Error("FindAll of absent pattern should be empty")
	}
}

func TestFindAllOverlapping(t *testing.T) {
	m := mustNew(t, 1)
	if err := m.Write(0, []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	got := m.FindAll([]byte("aa"))
	if len(got) != 3 {
		t.Fatalf("overlapping FindAll = %d matches, want 3", len(got))
	}
}

func TestFrameMetadata(t *testing.T) {
	m := mustNew(t, 2)
	f := m.Frame(1)
	if f.State != FrameFree {
		t.Fatalf("boot state = %v, want free", f.State)
	}
	f.State = FrameAllocated
	f.Owner = OwnerUser
	if m.Frame(1).State != FrameAllocated || m.Frame(1).Owner != OwnerUser {
		t.Fatal("Frame() must return a live pointer")
	}
	if !m.ValidPage(1) || m.ValidPage(2) {
		t.Fatal("ValidPage wrong")
	}
}

func TestReverseMap(t *testing.T) {
	var f Frame
	f.AddMapper(30)
	f.AddMapper(10)
	f.AddMapper(20)
	f.AddMapper(10) // duplicate ignored
	got := f.Mappers()
	want := []int{10, 20, 30}
	if len(got) != 3 {
		t.Fatalf("Mappers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Mappers = %v, want %v", got, want)
		}
	}
	if !f.HasMapper(20) || f.HasMapper(99) {
		t.Fatal("HasMapper wrong")
	}
	f.RemoveMapper(20)
	f.RemoveMapper(99) // absent: no-op
	if f.HasMapper(20) || len(f.Mappers()) != 2 {
		t.Fatal("RemoveMapper wrong")
	}
	f.ClearMappers()
	if len(f.Mappers()) != 0 {
		t.Fatal("ClearMappers wrong")
	}
}

func TestMappersReturnsCopy(t *testing.T) {
	var f Frame
	f.AddMapper(1)
	got := f.Mappers()
	got[0] = 42
	if !f.HasMapper(1) || f.HasMapper(42) {
		t.Fatal("Mappers must return a defensive copy")
	}
}

func TestStringers(t *testing.T) {
	if FrameFree.String() != "free" || FrameAllocated.String() != "allocated" {
		t.Error("FrameState.String wrong")
	}
	if FrameState(99).String() == "" {
		t.Error("unknown FrameState should still format")
	}
	for o, want := range map[Owner]string{
		OwnerNone: "none", OwnerKernel: "kernel", OwnerUser: "user",
		OwnerPageCache: "pagecache", OwnerSwap: "swap",
	} {
		if o.String() != want {
			t.Errorf("Owner(%d).String() = %q, want %q", o, o.String(), want)
		}
	}
	if Owner(99).String() == "" {
		t.Error("unknown Owner should still format")
	}
}

// Property: write-then-read round-trips for arbitrary payloads and offsets.
func TestQuickReadWriteRoundTrip(t *testing.T) {
	m := mustNew(t, 16)
	f := func(off uint16, payload []byte) bool {
		addr := Addr(off) % Addr(m.Size())
		if !m.ValidRange(addr, len(payload)) {
			return true // out-of-range combinations are rejected elsewhere
		}
		if err := m.Write(addr, payload); err != nil {
			return false
		}
		got, err := m.Read(addr, len(payload))
		if err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: FindAll locates a random planted pattern at a random page-interior
// location, and the reported address is exact.
func TestQuickFindAllLocatesPlants(t *testing.T) {
	m := mustNew(t, 16)
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pat := make([]byte, 24)
		r.Read(pat)
		// Guarantee the pattern is distinctive (avoid all-zero collisions
		// with untouched memory).
		pat[0] = 0xA5
		addr := Addr(rng.Intn(m.Size() - len(pat)))
		if err := m.Write(addr, pat); err != nil {
			return false
		}
		found := m.FindAll(pat)
		ok := false
		for _, a := range found {
			if a == addr {
				ok = true
			}
		}
		// Clean up so plants don't accumulate into overlaps.
		if err := m.Zero(addr, len(pat)); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteGenerations(t *testing.T) {
	m := mustNew(t, 8)
	if m.Mutations() != 0 {
		t.Fatalf("boot mutations = %d, want 0", m.Mutations())
	}
	for pn := 0; pn < 8; pn++ {
		if g := m.Frame(PageNum(pn)).Gen(); g != 0 {
			t.Fatalf("boot gen of frame %d = %d, want 0", pn, g)
		}
	}

	// Write touching frames 1 and 2 stamps both with the same generation.
	if err := m.Write(PageNum(2).Base()-4, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if m.Mutations() != 1 {
		t.Fatalf("mutations = %d, want 1", m.Mutations())
	}
	g1, g2 := m.Frame(1).Gen(), m.Frame(2).Gen()
	if g1 != 1 || g2 != 1 {
		t.Fatalf("gens = %d,%d, want 1,1", g1, g2)
	}
	if g := m.Frame(0).Gen(); g != 0 {
		t.Fatalf("untouched frame gen = %d, want 0", g)
	}

	// Each mutation kind bumps the counter and stamps only its frames.
	if err := m.Zero(PageNum(3).Base(), 16); err != nil {
		t.Fatal(err)
	}
	if err := m.ZeroPage(4); err != nil {
		t.Fatal(err)
	}
	if err := m.CopyPage(5, 3); err != nil {
		t.Fatal(err)
	}
	if m.Mutations() != 4 {
		t.Fatalf("mutations = %d, want 4", m.Mutations())
	}
	for pn, want := range map[PageNum]uint64{3: 2, 4: 3, 5: 4} {
		if g := m.Frame(pn).Gen(); g != want {
			t.Fatalf("frame %d gen = %d, want %d", pn, g, want)
		}
	}
	// CopyPage stamps the destination, not the source (src bytes did not
	// change).
	if g := m.Frame(3).Gen(); g != 2 {
		t.Fatalf("copy source gen = %d, want 2 (unchanged)", g)
	}

	// Reads and views are not mutations.
	if _, err := m.Read(0, 64); err != nil {
		t.Fatal(err)
	}
	if _, err := m.View(0, m.Size()); err != nil {
		t.Fatal(err)
	}
	m.PageIsZero(0)
	if m.Mutations() != 4 {
		t.Fatalf("mutations after reads = %d, want 4", m.Mutations())
	}

	// Zero-length writes are no-ops for generations too.
	if err := m.Write(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Zero(0, 0); err != nil {
		t.Fatal(err)
	}
	if m.Mutations() != 4 {
		t.Fatalf("mutations after empty ops = %d, want 4", m.Mutations())
	}
}

func TestGenerationWindowMaxStrictlyIncreases(t *testing.T) {
	// The incremental scanner's invariant: because gens come from one
	// monotonic counter, any write inside a frame window strictly
	// increases the window's maximum generation — even a write to a frame
	// that previously held a smaller gen than its neighbours.
	m := mustNew(t, 4)
	windowMax := func() uint64 {
		var mx uint64
		for pn := PageNum(0); pn < 4; pn++ {
			if g := m.Frame(pn).Gen(); g > mx {
				mx = g
			}
		}
		return mx
	}
	prev := windowMax()
	for _, pn := range []PageNum{3, 0, 2, 0, 1, 3, 0} {
		if err := m.Write(pn.Base(), []byte{0xAB}); err != nil {
			t.Fatal(err)
		}
		if now := windowMax(); now <= prev {
			t.Fatalf("write to frame %d: window max %d -> %d, want strict increase", pn, prev, now)
		} else {
			prev = now
		}
	}
}

// Property: after any sequence of mutations, every block's generation is
// the maximum generation over its frames — including the partial last
// block of a memory whose page count is not a multiple of BlockFrames.
func TestQuickBlockGenIsBlockMax(t *testing.T) {
	const pages = 3*BlockFrames + 5
	f := func(seed int64) bool {
		m, err := New(pages)
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed))
		for op := 0; op < 64; op++ {
			pn := PageNum(r.Intn(pages))
			switch r.Intn(5) {
			case 0:
				n := 1 + r.Intn(3*PageSize)
				addr := Addr(r.Intn(m.Size() - n + 1))
				err = m.Write(addr, make([]byte, n))
			case 1:
				n := r.Intn(2 * PageSize)
				err = m.Zero(Addr(r.Intn(m.Size()-n+1)), n)
			case 2:
				err = m.ZeroPage(pn)
			case 3:
				err = m.CopyPage(pn, PageNum(r.Intn(pages)))
			case 4:
				// Metadata-only: no generation may move.
				m.Frame(pn).State = FrameAllocated
				m.Frame(pn).AddMapper(r.Intn(8))
			}
			if err != nil {
				return false
			}
			if m.NumBlocks() != (pages+BlockFrames-1)/BlockFrames {
				return false
			}
			for b := 0; b < m.NumBlocks(); b++ {
				var mx uint64
				for g := b * BlockFrames; g < min((b+1)*BlockFrames, pages); g++ {
					mx = max(mx, m.Frame(PageNum(g)).Gen())
				}
				if m.BlockGen(b) != mx {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// plainMemory is the memory model without the known-zero bit: every
// ZeroPage clears its frame, and every content operation stamps the
// touched frames with the next mutation count.
type plainMemory struct {
	data []byte
	gens []uint64
	muts uint64
}

func (p *plainMemory) stamp(addr Addr, n int) {
	if n <= 0 {
		return
	}
	p.muts++
	for pn := addr.Page(); pn <= (addr + Addr(n) - 1).Page(); pn++ {
		p.gens[pn] = p.muts
	}
}

// Property: under random Write/Zero/ZeroPage/CopyPage sequences, every
// frame whose known-zero bit is set holds only zero bytes, PageIsZero
// agrees with the bytes for every frame, and contents, Mutations() and
// every frame's Gen() follow exactly the sequence of a memory that clears
// on every ZeroPage.
func TestQuickKnownZeroMatchesPlainMemory(t *testing.T) {
	const pages = BlockFrames + 3
	zeros := make([]byte, PageSize)
	f := func(seed int64) bool {
		m, err := New(pages)
		if err != nil {
			return false
		}
		p := &plainMemory{data: make([]byte, pages*PageSize), gens: make([]uint64, pages)}
		r := rand.New(rand.NewSource(seed))
		buf := make([]byte, 3*PageSize)
		for op := 0; op < 200; op++ {
			pn, src := PageNum(r.Intn(pages)), PageNum(r.Intn(pages))
			switch r.Intn(6) {
			case 0, 1:
				n := r.Intn(len(buf) + 1)
				addr := Addr(r.Intn(m.Size() - n + 1))
				b := buf[:n]
				r.Read(b)
				if r.Intn(3) == 0 {
					clear(b) // an all-zero write still clears the bit
				}
				err = m.Write(addr, b)
				copy(p.data[addr:], b)
				p.stamp(addr, n)
			case 2:
				n := r.Intn(2 * PageSize)
				addr := Addr(r.Intn(m.Size() - n + 1))
				err = m.Zero(addr, n)
				clear(p.data[addr : addr+Addr(n)])
				p.stamp(addr, n)
			case 3, 4:
				err = m.ZeroPage(pn)
				clear(p.data[pn.Base() : pn.Base()+PageSize])
				p.stamp(pn.Base(), PageSize)
			case 5:
				err = m.CopyPage(pn, src)
				copy(p.data[pn.Base():pn.Base()+PageSize], p.data[src.Base():src.Base()+PageSize])
				p.stamp(pn.Base(), PageSize)
			}
			if err != nil || m.Mutations() != p.muts || !bytes.Equal(m.data, p.data) {
				return false
			}
			for g := PageNum(0); g < pages; g++ {
				page := m.data[g.Base() : g.Base()+PageSize]
				isZero := bytes.Equal(page, zeros)
				if m.frames[g].zero && !isZero || m.PageIsZero(g) != isZero || m.Frame(g).Gen() != p.gens[g] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestZeroPageSkipsKnownZeroFrameButStamps: a second ZeroPage of a zero
// frame still counts as a mutation and moves the frame's and its block's
// generation, exactly as the first did.
func TestZeroPageSkipsKnownZeroFrameButStamps(t *testing.T) {
	m := mustNew(t, 4)
	if !m.frames[2].zero {
		t.Fatal("a fresh frame must be known zero")
	}
	for want := uint64(1); want <= 3; want++ {
		if err := m.ZeroPage(2); err != nil {
			t.Fatal(err)
		}
		if m.Mutations() != want || m.Frame(2).Gen() != want || m.BlockGen(0) != want || !m.frames[2].zero {
			t.Fatalf("after ZeroPage %d: muts %d gen %d block %d zero %v", want,
				m.Mutations(), m.Frame(2).Gen(), m.BlockGen(0), m.frames[2].zero)
		}
	}
	if err := m.Write(Addr(2*PageSize+7), []byte{0}); err != nil {
		t.Fatal(err)
	}
	if m.frames[2].zero {
		t.Fatal("a write must clear the known-zero bit")
	}
}
