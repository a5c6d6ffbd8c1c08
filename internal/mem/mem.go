// Package mem implements the simulated physical memory that every other
// subsystem in memshield is built on.
//
// The entire "machine" is a single byte slice divided into fixed-size page
// frames. Each frame carries the metadata a real kernel keeps in its struct
// page: allocation state, an owner classification (kernel, user, page cache),
// a reference count, and a reverse mapping to the processes that have the
// frame in their address space. Because all key material handled by the
// simulated OpenSSL layer lives inside this slice, a linear scan over it is
// exactly the paper's scanmemory loadable kernel module, and a disclosure
// attack is just a read of some window of the slice.
package mem

import (
	"bytes"
	"fmt"
	"sort"
)

// PageSize is the size of one simulated page frame in bytes. It matches the
// 4 KiB pages of the paper's IA-32 testbed.
const PageSize = 4096

// PageShift is log2(PageSize), used to convert addresses to frame numbers.
const PageShift = 12

// BlockShift is log2(BlockFrames).
const BlockShift = 6

// BlockFrames is the number of consecutive frames that share one block
// write generation (see Memory.BlockGen). 64 frames per block lets an
// incremental scanner rule out a whole block with one compare, and lets a
// per-frame bitmap word line up with exactly one block.
const BlockFrames = 1 << BlockShift

// Addr is a physical address into the simulated memory.
type Addr uint64

// PageNum is a physical page frame number (Addr >> PageShift).
type PageNum uint64

// Page returns the frame number containing the address.
func (a Addr) Page() PageNum { return PageNum(a >> PageShift) }

// Offset returns the byte offset of the address within its frame.
func (a Addr) Offset() int { return int(a & (PageSize - 1)) }

// Base returns the physical address of the first byte of the frame.
func (p PageNum) Base() Addr { return Addr(p) << PageShift }

// FrameState describes whether a frame is currently handed out.
type FrameState uint8

// Frame states. A frame is either on the allocator's free lists or owned by
// some subsystem. There is deliberately no "uninitialized" state: the machine
// boots with every frame free and zeroed.
const (
	FrameFree FrameState = iota + 1
	FrameAllocated
)

func (s FrameState) String() string {
	switch s {
	case FrameFree:
		return "free"
	case FrameAllocated:
		return "allocated"
	default:
		return fmt.Sprintf("FrameState(%d)", uint8(s))
	}
}

// Owner classifies who holds an allocated frame. It mirrors the distinction
// the paper's scanner makes when attributing matches: user process pages
// (via the anon-VMA reverse map), kernel pages, and page-cache pages.
type Owner uint8

// Frame owner kinds.
const (
	OwnerNone Owner = iota
	OwnerKernel
	OwnerUser
	OwnerPageCache
	OwnerSwap
)

func (o Owner) String() string {
	switch o {
	case OwnerNone:
		return "none"
	case OwnerKernel:
		return "kernel"
	case OwnerUser:
		return "user"
	case OwnerPageCache:
		return "pagecache"
	case OwnerSwap:
		return "swap"
	default:
		return fmt.Sprintf("Owner(%d)", uint8(o))
	}
}

// Frame is the per-page metadata (struct page analog).
type Frame struct {
	State FrameState
	Owner Owner
	// RefCount counts address-space mappings plus non-VM holders. COW
	// sharing after fork is expressed as RefCount > 1.
	RefCount int
	// Locked marks mlock'd frames which must never be swapped out.
	Locked bool
	// gen is the frame's write generation: the value of the memory-wide
	// mutation counter at the last time any byte of the frame changed.
	// Incremental scanners compare generations to skip untouched frames.
	gen uint64
	// mappers is the reverse map: PIDs of processes that have this frame
	// in their page tables. Sorted, no duplicates.
	mappers []int
}

// Gen returns the frame's write generation. Generations are assigned from
// a single memory-wide monotonic counter, so the maximum generation over
// any set of frames strictly increases whenever one of them is written.
func (f *Frame) Gen() uint64 { return f.gen }

// Memory is the simulated physical memory of one machine.
type Memory struct {
	data   []byte
	frames []Frame
	// muts counts content mutations (Write/Zero/ZeroPage/CopyPage calls
	// that changed at least zero bytes of some frame). Each touched frame's
	// gen is stamped with the post-increment value.
	muts uint64
	// blockGen[b] is the highest write generation of any frame in block
	// b (frames [b*BlockFrames, (b+1)*BlockFrames)). touch stamps it
	// together with the frames, so it is always the block's maximum.
	blockGen []uint64
}

// New creates a machine with the given number of page frames, all free and
// zeroed. It returns an error for a non-positive size.
func New(numPages int) (*Memory, error) {
	if numPages <= 0 {
		return nil, fmt.Errorf("mem: numPages must be positive, got %d", numPages)
	}
	m := &Memory{
		data:     make([]byte, numPages*PageSize),
		frames:   make([]Frame, numPages),
		blockGen: make([]uint64, (numPages+BlockFrames-1)/BlockFrames),
	}
	for i := range m.frames {
		m.frames[i] = Frame{State: FrameFree, Owner: OwnerNone}
	}
	return m, nil
}

// NewMB creates a machine with the given amount of memory in mebibytes.
func NewMB(mb int) (*Memory, error) {
	return New(mb * 1024 * 1024 / PageSize)
}

// NumPages returns the number of page frames.
func (m *Memory) NumPages() int { return len(m.frames) }

// Size returns the total memory size in bytes.
func (m *Memory) Size() int { return len(m.data) }

// ValidPage reports whether pn names an existing frame (pfn_valid analog).
func (m *Memory) ValidPage(pn PageNum) bool { return int(pn) < len(m.frames) }

// ValidRange reports whether [addr, addr+n) lies inside physical memory.
func (m *Memory) ValidRange(addr Addr, n int) bool {
	return n >= 0 && uint64(addr) <= uint64(len(m.data)) && uint64(addr)+uint64(n) <= uint64(len(m.data))
}

// Frame returns a pointer to the metadata of frame pn. The pointer stays
// valid for the lifetime of the Memory; callers must not retain it across
// reconfiguration. Panics on an invalid frame number: frame numbers are
// produced by the allocator and an out-of-range one is a simulator bug, not
// a recoverable condition.
func (m *Memory) Frame(pn PageNum) *Frame {
	return &m.frames[pn]
}

// Mutations returns the memory-wide mutation counter: it increases on
// every content-changing operation, so an unchanged value between two
// observations proves no byte of physical memory changed in between.
// Frame-state changes (alloc/free, mappers, locking) do not count — they
// alter metadata, not contents.
func (m *Memory) Mutations() uint64 { return m.muts }

// NumBlocks returns the number of frame blocks: NumPages/BlockFrames,
// rounded up (the last block may be partial).
func (m *Memory) NumBlocks() int { return len(m.blockGen) }

// BlockGen returns block b's write generation: the maximum Gen over the
// frames of the block, 0 if none was ever written. A value at most g
// proves no frame of the block changed after the mutation counter read g.
func (m *Memory) BlockGen(b int) uint64 { return m.blockGen[b] }

// touch stamps the write generation of every frame overlapping
// [addr, addr+n), and of the blocks holding them. Callers have already
// validated the range.
func (m *Memory) touch(addr Addr, n int) {
	if n <= 0 {
		return
	}
	m.muts++
	last := (addr + Addr(n) - 1).Page()
	for pn := addr.Page(); pn <= last; pn++ {
		m.frames[pn].gen = m.muts
		m.blockGen[pn>>BlockShift] = m.muts
	}
}

// Read copies n bytes starting at addr into a fresh slice.
func (m *Memory) Read(addr Addr, n int) ([]byte, error) {
	if !m.ValidRange(addr, n) {
		return nil, fmt.Errorf("mem: read [%d,+%d) outside %d-byte memory", addr, n, len(m.data))
	}
	out := make([]byte, n)
	copy(out, m.data[addr:])
	return out, nil
}

// Write copies b into memory at addr.
func (m *Memory) Write(addr Addr, b []byte) error {
	if !m.ValidRange(addr, len(b)) {
		return fmt.Errorf("mem: write [%d,+%d) outside %d-byte memory", addr, len(b), len(m.data))
	}
	copy(m.data[addr:], b)
	m.touch(addr, len(b))
	return nil
}

// Zero clears n bytes starting at addr.
func (m *Memory) Zero(addr Addr, n int) error {
	if !m.ValidRange(addr, n) {
		return fmt.Errorf("mem: zero [%d,+%d) outside %d-byte memory", addr, n, len(m.data))
	}
	clear(m.data[addr : addr+Addr(n)])
	m.touch(addr, n)
	return nil
}

// ZeroPage clears one whole frame (clear_highpage analog).
func (m *Memory) ZeroPage(pn PageNum) error {
	if !m.ValidPage(pn) {
		return fmt.Errorf("mem: zero of invalid page %d", pn)
	}
	clear(m.data[pn.Base() : pn.Base()+PageSize])
	m.touch(pn.Base(), PageSize)
	return nil
}

// CopyPage copies the contents of frame src to frame dst (COW break).
func (m *Memory) CopyPage(dst, src PageNum) error {
	if !m.ValidPage(dst) || !m.ValidPage(src) {
		return fmt.Errorf("mem: copy page %d -> %d out of range", src, dst)
	}
	copy(m.data[dst.Base():dst.Base()+PageSize], m.data[src.Base():src.Base()+PageSize])
	m.touch(dst.Base(), PageSize)
	return nil
}

// PageIsZero reports whether every byte of the frame is zero.
func (m *Memory) PageIsZero(pn PageNum) bool {
	if !m.ValidPage(pn) {
		return false
	}
	page := m.data[pn.Base() : pn.Base()+PageSize]
	for _, b := range page {
		if b != 0 {
			return false
		}
	}
	return true
}

// View returns a read-only window over [addr, addr+n). It aliases the live
// memory; callers must treat it as immutable and must not retain it across
// writes. Disclosure attacks use View to model "the attacker got these
// bytes" without doubling memory.
func (m *Memory) View(addr Addr, n int) ([]byte, error) {
	if !m.ValidRange(addr, n) {
		return nil, fmt.Errorf("mem: view [%d,+%d) outside %d-byte memory", addr, n, len(m.data))
	}
	return m.data[addr : addr+Addr(n) : addr+Addr(n)], nil
}

// FindAll returns the physical addresses of every occurrence of pattern, in
// ascending order. This is the core of the scanmemory linear search.
func (m *Memory) FindAll(pattern []byte) []Addr {
	if len(pattern) == 0 {
		return nil
	}
	var out []Addr
	from := 0
	for {
		i := bytes.Index(m.data[from:], pattern)
		if i < 0 {
			return out
		}
		out = append(out, Addr(from+i))
		from += i + 1
	}
}

// AddMapper records that process pid has this frame mapped (reverse map
// insert). Duplicate inserts are ignored.
func (f *Frame) AddMapper(pid int) {
	i := sort.SearchInts(f.mappers, pid)
	if i < len(f.mappers) && f.mappers[i] == pid {
		return
	}
	f.mappers = append(f.mappers, 0)
	copy(f.mappers[i+1:], f.mappers[i:])
	f.mappers[i] = pid
}

// RemoveMapper removes process pid from the reverse map. Removing an absent
// pid is a no-op.
func (f *Frame) RemoveMapper(pid int) {
	i := sort.SearchInts(f.mappers, pid)
	if i < len(f.mappers) && f.mappers[i] == pid {
		f.mappers = append(f.mappers[:i], f.mappers[i+1:]...)
	}
}

// Mappers returns a copy of the PIDs that map this frame, sorted ascending.
func (f *Frame) Mappers() []int {
	out := make([]int, len(f.mappers))
	copy(out, f.mappers)
	return out
}

// HasMapper reports whether pid maps this frame.
func (f *Frame) HasMapper(pid int) bool {
	i := sort.SearchInts(f.mappers, pid)
	return i < len(f.mappers) && f.mappers[i] == pid
}

// ClearMappers empties the reverse map (used when a frame is freed).
func (f *Frame) ClearMappers() { f.mappers = f.mappers[:0] }

// CountState returns how many frames are in the given state.
func (m *Memory) CountState(s FrameState) int {
	n := 0
	for i := range m.frames {
		if m.frames[i].State == s {
			n++
		}
	}
	return n
}
