// Package vm implements virtual memory for simulated processes: address
// spaces, page tables, copy-on-write fork, mlock, and swap.
//
// The paper's application-level countermeasure is built directly on two of
// these mechanisms: it places the private key in a page-aligned region that
// no process ever writes (so fork's copy-on-write sharing keeps exactly one
// physical copy no matter how many children exist), and it mlock()s that
// region (so the key can never be written to swap, whose pages are freed
// without clearing and would otherwise expose the key in unallocated
// memory). Both behaviours — COW refcounting and swap-out freeing the frame
// with its contents intact — are modelled here at page granularity.
package vm

import (
	"errors"
	"fmt"
	"sort"

	"memshield/internal/fault"
	"memshield/internal/kernel/alloc"
	"memshield/internal/mem"
	"memshield/internal/trace"
)

// VAddr is a virtual address within one process address space.
type VAddr uint64

// VPage is a virtual page number.
type VPage uint64

// Page returns the virtual page containing the address.
func (a VAddr) Page() VPage { return VPage(a >> mem.PageShift) }

// Offset returns the byte offset within the page.
func (a VAddr) Offset() int { return int(a & (mem.PageSize - 1)) }

// Base returns the first address of the virtual page.
func (p VPage) Base() VAddr { return VAddr(p) << mem.PageShift }

// Errors reported by the VM layer.
var (
	ErrNoSpace      = errors.New("vm: no such address space")
	ErrBadAddress   = errors.New("vm: address not mapped")
	ErrSpaceExists  = errors.New("vm: address space already exists")
	ErrLockedPage   = errors.New("vm: page is mlocked")
	ErrNoSwapSpace  = errors.New("vm: swap area full")
	ErrNotSwappable = errors.New("vm: page not eligible for swap")
	ErrReadOnly     = errors.New("vm: write to read-only mapping")
	// ErrMlockDenied is the RLIMIT_MEMLOCK / EPERM refusal: the pin the
	// paper's RSA_memory_align depends on was not granted. Only produced
	// under fault injection.
	ErrMlockDenied = errors.New("vm: mlock denied")
	// ErrSwapIO is a swap-device write failure during swap-out, distinct
	// from the device being full. Only produced under fault injection.
	ErrSwapIO = errors.New("vm: swap store I/O error")
)

// pte is one page-table entry.
type pte struct {
	frame    mem.PageNum
	present  bool // resident in physical memory
	writable bool
	cow      bool // shared copy-on-write after fork
	locked   bool // mlocked: never swapped
	swapped  bool // contents live in a swap slot
	swapSlot int
	// userRO marks pages the process made read-only via Mprotect; unlike
	// the transient COW read-only state, a write here faults instead of
	// copying.
	userRO bool
}

// VMA describes one virtual memory area (a contiguous mapped region).
type VMA struct {
	Start VAddr
	End   VAddr // exclusive, page aligned
	Name  string
}

// Pages returns the number of pages the VMA spans.
func (v *VMA) Pages() int { return int((v.End - v.Start) >> mem.PageShift) }

// Contains reports whether the address lies inside the VMA.
func (v *VMA) Contains(a VAddr) bool { return a >= v.Start && a < v.End }

// AddressSpace is the virtual memory image of one process.
type AddressSpace struct {
	pid    int
	vmas   []*VMA
	pt     map[VPage]*pte
	nextVA VAddr // bump pointer for MapAnon placement
}

// PID returns the owning process ID.
func (s *AddressSpace) PID() int { return s.pid }

// VMAs returns a snapshot of the mapped areas.
func (s *AddressSpace) VMAs() []*VMA {
	out := make([]*VMA, len(s.vmas))
	copy(out, s.vmas)
	return out
}

// Manager owns every address space on the machine plus the swap area.
type Manager struct {
	mem    *mem.Memory
	alloc  *alloc.Allocator
	spaces map[int]*AddressSpace
	swap   *SwapArea
	// sink receives VM events when tracing is enabled (nil = off).
	sink trace.Sink
	// injector makes fault-injection decisions (nil = no injection).
	injector *fault.Injector
}

// SetSink attaches (or detaches, with nil) an event sink.
func (mg *Manager) SetSink(s trace.Sink) { mg.sink = s }

// SetInjector attaches (or detaches, with nil) a fault injector covering
// SiteMlock and SiteSwapStore.
func (mg *Manager) SetInjector(in *fault.Injector) { mg.injector = in }

// emit sends an event to the sink if tracing is on.
func (mg *Manager) emit(kind trace.Kind, pid int, pn mem.PageNum, aux int) {
	if mg.sink != nil {
		mg.sink.Emit(trace.Event{Kind: kind, PID: pid, Page: pn, Aux: aux})
	}
}

// NewManager creates a VM manager over the given memory and allocator, with
// a swap area of swapPages slots (0 disables swap).
func NewManager(m *mem.Memory, a *alloc.Allocator, swapPages int, encryptSwap bool) *Manager {
	return &Manager{
		mem:    m,
		alloc:  a,
		spaces: make(map[int]*AddressSpace),
		swap:   NewSwapArea(swapPages, encryptSwap),
	}
}

// Swap exposes the swap area (for disclosure experiments on swap contents).
func (mg *Manager) Swap() *SwapArea { return mg.swap }

// NewSpace creates an empty address space for pid.
func (mg *Manager) NewSpace(pid int) (*AddressSpace, error) {
	if _, ok := mg.spaces[pid]; ok {
		return nil, fmt.Errorf("%w: pid %d", ErrSpaceExists, pid)
	}
	s := &AddressSpace{
		pid:    pid,
		pt:     make(map[VPage]*pte),
		nextVA: 0x1000, // leave page 0 unmapped, like a real process
	}
	mg.spaces[pid] = s
	return s, nil
}

// Space returns the address space of pid.
func (mg *Manager) Space(pid int) (*AddressSpace, error) {
	s, ok := mg.spaces[pid]
	if !ok {
		return nil, fmt.Errorf("%w: pid %d", ErrNoSpace, pid)
	}
	return s, nil
}

// HasSpace reports whether pid has an address space.
func (mg *Manager) HasSpace(pid int) bool {
	_, ok := mg.spaces[pid]
	return ok
}

// MapAnon maps npages of fresh anonymous memory into pid's address space and
// returns the starting virtual address. Physical frames are allocated
// eagerly and are NOT zeroed by the allocator; like a real kernel we clear
// anonymous pages before handing them to userspace (so secrets never leak
// INTO a process; they leak out of freed pages instead).
func (mg *Manager) MapAnon(pid int, npages int, name string) (VAddr, error) {
	s, err := mg.Space(pid)
	if err != nil {
		return 0, err
	}
	if npages <= 0 {
		return 0, fmt.Errorf("vm: MapAnon npages must be positive, got %d", npages)
	}
	start := s.nextVA
	frames := make([]mem.PageNum, 0, npages)
	for i := 0; i < npages; i++ {
		pn, err := mg.alloc.AllocPage(mem.OwnerUser)
		if err != nil {
			for _, f := range frames {
				_ = mg.alloc.Free(f)
			}
			return 0, fmt.Errorf("vm: MapAnon: %w", err)
		}
		// Anonymous mappings are zero-filled on first touch in real
		// kernels; zero eagerly here. On failure the page just allocated
		// joins the rollback, or the whole batch leaks.
		if zerr := mg.mem.ZeroPage(pn); zerr != nil {
			_ = mg.alloc.Free(pn)
			for _, f := range frames {
				_ = mg.alloc.Free(f)
			}
			return 0, fmt.Errorf("vm: MapAnon: %w", zerr)
		}
		frames = append(frames, pn)
	}
	for i, pn := range frames {
		vp := (start + VAddr(i*mem.PageSize)).Page()
		s.pt[vp] = &pte{frame: pn, present: true, writable: true}
		f := mg.mem.Frame(pn)
		f.AddMapper(pid)
	}
	vma := &VMA{Start: start, End: start + VAddr(npages*mem.PageSize), Name: name}
	s.vmas = append(s.vmas, vma)
	s.nextVA = vma.End + mem.PageSize // guard page gap
	return start, nil
}

// MapShared maps existing physical frames (typically page-cache pages)
// read-only into pid's address space — the mmap(MAP_SHARED, PROT_READ)
// path. The frames' refcounts rise so neither unmapping nor (guarded)
// cache eviction can free them out from under the other holder; crucially,
// no byte is copied, so a file mapped by N processes still exists exactly
// once in physical memory.
func (mg *Manager) MapShared(pid int, frames []mem.PageNum, name string) (VAddr, error) {
	s, err := mg.Space(pid)
	if err != nil {
		return 0, err
	}
	if len(frames) == 0 {
		return 0, fmt.Errorf("vm: MapShared of zero frames")
	}
	for _, pn := range frames {
		if !mg.mem.ValidPage(pn) || mg.mem.Frame(pn).State != mem.FrameAllocated {
			return 0, fmt.Errorf("%w: frame %d not allocated", ErrBadAddress, pn)
		}
	}
	start := s.nextVA
	for i, pn := range frames {
		vp := (start + VAddr(i*mem.PageSize)).Page()
		s.pt[vp] = &pte{frame: pn, present: true, writable: false}
		f := mg.mem.Frame(pn)
		f.RefCount++
		f.AddMapper(pid)
	}
	vma := &VMA{Start: start, End: start + VAddr(len(frames)*mem.PageSize), Name: name}
	s.vmas = append(s.vmas, vma)
	s.nextVA = vma.End + mem.PageSize
	return start, nil
}

// Unmap removes npages starting at the page containing addr from pid's
// address space. Frames whose last reference drops are returned to the
// allocator (the dealloc policy decides whether their contents survive).
func (mg *Manager) Unmap(pid int, addr VAddr, npages int) error {
	s, err := mg.Space(pid)
	if err != nil {
		return err
	}
	for i := 0; i < npages; i++ {
		vp := addr.Page() + VPage(i)
		e, ok := s.pt[vp]
		if !ok {
			return fmt.Errorf("%w: pid %d vpage %d", ErrBadAddress, pid, vp)
		}
		if err := mg.dropPTE(pid, e); err != nil {
			return err
		}
		delete(s.pt, vp)
	}
	mg.trimVMAs(s, addr, npages)
	return nil
}

// dropPTE releases whatever the PTE holds: a frame reference or a swap
// slot. It is atomic: when this is the frame's last reference, nothing is
// mutated until the allocator's Free succeeds (Free resets the frame's
// metadata wholesale), so a failed zero-on-free leaves the mapping fully
// intact for retry instead of stranding a mapper-less allocated frame.
func (mg *Manager) dropPTE(pid int, e *pte) error {
	if e.swapped {
		mg.swap.Release(e.swapSlot)
		return nil
	}
	if !e.present {
		return nil
	}
	f := mg.mem.Frame(e.frame)
	if f.RefCount <= 1 {
		if err := mg.alloc.Free(e.frame); err != nil {
			return fmt.Errorf("vm: release frame %d: %w", e.frame, err)
		}
		return nil
	}
	f.RemoveMapper(pid)
	f.RefCount--
	return nil
}

// trimVMAs removes or shrinks VMAs covering the unmapped range. Partial
// unmaps in the middle of a VMA split it.
func (mg *Manager) trimVMAs(s *AddressSpace, addr VAddr, npages int) {
	lo := addr.Page().Base()
	hi := lo + VAddr(npages*mem.PageSize)
	var out []*VMA
	for _, v := range s.vmas {
		switch {
		case v.End <= lo || v.Start >= hi:
			out = append(out, v)
		case v.Start >= lo && v.End <= hi:
			// fully removed
		case v.Start < lo && v.End > hi:
			out = append(out,
				&VMA{Start: v.Start, End: lo, Name: v.Name},
				&VMA{Start: hi, End: v.End, Name: v.Name})
		case v.Start < lo:
			out = append(out, &VMA{Start: v.Start, End: lo, Name: v.Name})
		default:
			out = append(out, &VMA{Start: hi, End: v.End, Name: v.Name})
		}
	}
	s.vmas = out
}

// DestroySpace tears down pid's entire address space, releasing every frame
// and swap slot. The process's pages become unallocated memory — with their
// contents intact unless the allocator policy clears them. This models
// process exit, the moment the paper shows key copies entering unallocated
// memory.
// DestroySpace is best-effort: a PTE whose release fails (an injected
// zero-on-free, say) is reported but does not abort the teardown — the
// remaining PTEs are still dropped and the space is always removed, so a
// partial failure can never leave a dangling address space whose PTEs
// reference freed frames. Frames whose release failed stay allocated
// (leaked, but structurally consistent) and are named in the joined error.
func (mg *Manager) DestroySpace(pid int) error {
	s, err := mg.Space(pid)
	if err != nil {
		return err
	}
	var errs error
	for _, vp := range sortedVPages(s.pt) {
		if err := mg.dropPTE(pid, s.pt[vp]); err != nil {
			errs = errors.Join(errs, fmt.Errorf("vm: destroy pid %d vpage %d: %w", pid, vp, err))
		}
	}
	delete(mg.spaces, pid)
	mg.emit(trace.EvExit, pid, 0, 0)
	return errs
}

// sortedVPages returns the page table's keys in ascending order, so that
// teardown frees pages deterministically (map iteration order would make
// the allocator's LIFO free lists — and every downstream experiment —
// nondeterministic).
func sortedVPages(pt map[VPage]*pte) []VPage {
	out := make([]VPage, 0, len(pt))
	for vp := range pt {
		out = append(out, vp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Fork clones parent's address space for child using copy-on-write: every
// resident page becomes shared and read-only in both processes; the first
// write by either side breaks the sharing with a private copy. Swapped-out
// pages are faulted back in first (simplification: fork touches them).
func (mg *Manager) Fork(parentPID, childPID int) error {
	ps, err := mg.Space(parentPID)
	if err != nil {
		return err
	}
	if _, ok := mg.spaces[childPID]; ok {
		return fmt.Errorf("%w: pid %d", ErrSpaceExists, childPID)
	}
	// Fault in swapped pages before sharing (sorted: swap-in allocates).
	for _, vp := range sortedVPages(ps.pt) {
		if e := ps.pt[vp]; e.swapped {
			if err := mg.swapIn(parentPID, ps, vp, e); err != nil {
				return err
			}
		}
	}
	cs := &AddressSpace{
		pid:    childPID,
		pt:     make(map[VPage]*pte, len(ps.pt)),
		nextVA: ps.nextVA,
	}
	for _, v := range ps.vmas {
		cs.vmas = append(cs.vmas, &VMA{Start: v.Start, End: v.End, Name: v.Name})
	}
	for vp, e := range ps.pt {
		if !e.present {
			continue
		}
		e.cow = true
		e.writable = false
		child := *e
		cs.pt[vp] = &child
		f := mg.mem.Frame(e.frame)
		f.RefCount++
		f.AddMapper(childPID)
	}
	mg.spaces[childPID] = cs
	mg.emit(trace.EvFork, parentPID, 0, childPID)
	return nil
}

// Translate resolves a virtual address to a physical address without
// faulting. Swapped pages are not resident and return ErrBadAddress.
func (mg *Manager) Translate(pid int, addr VAddr) (mem.Addr, error) {
	s, err := mg.Space(pid)
	if err != nil {
		return 0, err
	}
	e, ok := s.pt[addr.Page()]
	if !ok || !e.present {
		return 0, fmt.Errorf("%w: pid %d addr %#x", ErrBadAddress, pid, addr)
	}
	return e.frame.Base() + mem.Addr(addr.Offset()), nil
}

// Read copies n bytes from pid's virtual memory, faulting in swapped pages.
func (mg *Manager) Read(pid int, addr VAddr, n int) ([]byte, error) {
	s, err := mg.Space(pid)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, n)
	for n > 0 {
		e, ok := s.pt[addr.Page()]
		if !ok {
			return nil, fmt.Errorf("%w: pid %d addr %#x", ErrBadAddress, pid, addr)
		}
		if e.swapped {
			if err := mg.swapIn(pid, s, addr.Page(), e); err != nil {
				return nil, err
			}
		}
		take := mem.PageSize - addr.Offset()
		if take > n {
			take = n
		}
		chunk, err := mg.mem.Read(e.frame.Base()+mem.Addr(addr.Offset()), take)
		if err != nil {
			return nil, err
		}
		out = append(out, chunk...)
		addr += VAddr(take)
		n -= take
	}
	return out, nil
}

// Write copies b into pid's virtual memory. Writing a COW-shared page breaks
// the sharing: the writer gets a private copy of the frame (this is the COW
// break that multiplies key copies in Apache prefork workers).
func (mg *Manager) Write(pid int, addr VAddr, b []byte) error {
	s, err := mg.Space(pid)
	if err != nil {
		return err
	}
	for len(b) > 0 {
		vp := addr.Page()
		e, ok := s.pt[vp]
		if !ok {
			return fmt.Errorf("%w: pid %d addr %#x", ErrBadAddress, pid, addr)
		}
		if e.swapped {
			if err := mg.swapIn(pid, s, vp, e); err != nil {
				return err
			}
		}
		if e.userRO {
			return fmt.Errorf("%w: pid %d addr %#x (mprotect)", ErrReadOnly, pid, addr)
		}
		if e.cow {
			if err := mg.breakCOW(pid, e); err != nil {
				return err
			}
		}
		if !e.writable {
			return fmt.Errorf("%w: pid %d addr %#x", ErrReadOnly, pid, addr)
		}
		take := mem.PageSize - addr.Offset()
		if take > len(b) {
			take = len(b)
		}
		if err := mg.mem.Write(e.frame.Base()+mem.Addr(addr.Offset()), b[:take]); err != nil {
			return err
		}
		addr += VAddr(take)
		b = b[take:]
	}
	return nil
}

// breakCOW gives the writing process a private copy of the shared frame.
// If the frame is no longer shared, the PTE simply becomes writable again.
func (mg *Manager) breakCOW(pid int, e *pte) error {
	f := mg.mem.Frame(e.frame)
	if f.RefCount <= 1 {
		e.cow = false
		e.writable = true
		return nil
	}
	newPN, err := mg.alloc.AllocPage(mem.OwnerUser)
	if err != nil {
		return fmt.Errorf("vm: COW break: %w", err)
	}
	if err := mg.mem.CopyPage(newPN, e.frame); err != nil {
		return err
	}
	f.RefCount--
	f.RemoveMapper(pid)
	mg.emit(trace.EvCOWBreak, pid, e.frame, int(newPN))
	e.frame = newPN
	e.cow = false
	e.writable = true
	nf := mg.mem.Frame(newPN)
	nf.AddMapper(pid)
	nf.Locked = e.locked
	return nil
}

// Mlock pins npages starting at addr: they will never be selected for
// swap-out. This is the mlock() the paper's RSA_memory_align calls on the
// key page. An injected denial (RLIMIT_MEMLOCK/EPERM) fails the whole
// call before any page is pinned.
func (mg *Manager) Mlock(pid int, addr VAddr, npages int) error {
	if err := mg.injector.Fail(fault.SiteMlock); err != nil {
		return fmt.Errorf("%w: %w", ErrMlockDenied, err)
	}
	return mg.setLock(pid, addr, npages, true)
}

// Munlock releases the pin.
func (mg *Manager) Munlock(pid int, addr VAddr, npages int) error {
	return mg.setLock(pid, addr, npages, false)
}

func (mg *Manager) setLock(pid int, addr VAddr, npages int, locked bool) error {
	s, err := mg.Space(pid)
	if err != nil {
		return err
	}
	for i := 0; i < npages; i++ {
		vp := addr.Page() + VPage(i)
		e, ok := s.pt[vp]
		if !ok {
			return fmt.Errorf("%w: pid %d vpage %d", ErrBadAddress, pid, vp)
		}
		if e.swapped {
			if err := mg.swapIn(pid, s, vp, e); err != nil {
				return err
			}
		}
		e.locked = locked
		mg.mem.Frame(e.frame).Locked = locked
	}
	return nil
}

// Mprotect toggles a process-requested write protection on npages starting
// at addr. Making a region read-only after it is initialized is the
// defense-in-depth companion to RSA_memory_align: even a compromised
// library routine cannot then scribble near (or COW-duplicate) the key.
func (mg *Manager) Mprotect(pid int, addr VAddr, npages int, writable bool) error {
	s, err := mg.Space(pid)
	if err != nil {
		return err
	}
	for i := 0; i < npages; i++ {
		vp := addr.Page() + VPage(i)
		e, ok := s.pt[vp]
		if !ok {
			return fmt.Errorf("%w: pid %d vpage %d", ErrBadAddress, pid, vp)
		}
		e.userRO = !writable
	}
	return nil
}

// IsLocked reports whether the page containing addr is mlocked.
func (mg *Manager) IsLocked(pid int, addr VAddr) (bool, error) {
	s, err := mg.Space(pid)
	if err != nil {
		return false, err
	}
	e, ok := s.pt[addr.Page()]
	if !ok {
		return false, fmt.Errorf("%w: pid %d addr %#x", ErrBadAddress, pid, addr)
	}
	return e.locked, nil
}

// SwapOut evicts the page at addr in pid's space to the swap area. The
// page's frame is freed — and, crucially, under the unpatched-kernel policy
// its contents (possibly key material) remain readable in unallocated
// memory, which is why the paper insists key pages be mlocked. Locked and
// COW-shared pages are not swappable.
//
// SwapOut is atomic: if the swap store is full (ErrNoSwapSpace), the
// device write fails (injected ErrSwapIO), or the frame cannot be freed,
// the victim page remains mapped, present and intact — there is no
// partially-swapped state. A slot claimed before a later step fails is
// released again.
func (mg *Manager) SwapOut(pid int, addr VAddr) error {
	s, err := mg.Space(pid)
	if err != nil {
		return err
	}
	e, ok := s.pt[addr.Page()]
	if !ok || !e.present {
		return fmt.Errorf("%w: pid %d addr %#x", ErrBadAddress, pid, addr)
	}
	if e.locked {
		return fmt.Errorf("%w: pid %d addr %#x", ErrLockedPage, pid, addr)
	}
	if mg.mem.Frame(e.frame).RefCount > 1 {
		return fmt.Errorf("%w: shared page", ErrNotSwappable)
	}
	content, err := mg.mem.Read(e.frame.Base(), mem.PageSize)
	if err != nil {
		return err
	}
	if ierr := mg.injector.Fail(fault.SiteSwapStore); ierr != nil {
		return fmt.Errorf("%w: %w", ErrSwapIO, ierr)
	}
	slot, err := mg.swap.Store(content)
	if err != nil {
		return err
	}
	// Free resets the frame's mapper/refcount metadata itself, so nothing
	// is pre-mutated: a Free failure rolls back to exactly the pre-call
	// state (modulo the released slot's content, which swap never clears).
	if err := mg.alloc.Free(e.frame); err != nil {
		mg.swap.Release(slot)
		return fmt.Errorf("vm: swap-out of frame %d: %w", e.frame, err)
	}
	e.present = false
	e.swapped = true
	e.swapSlot = slot
	mg.emit(trace.EvSwapOut, pid, e.frame, slot)
	return nil
}

// swapIn faults a swapped page back into a fresh frame.
func (mg *Manager) swapIn(pid int, s *AddressSpace, vp VPage, e *pte) error {
	content, err := mg.swap.Load(e.swapSlot)
	if err != nil {
		return err
	}
	pn, err := mg.alloc.AllocPage(mem.OwnerUser)
	if err != nil {
		return fmt.Errorf("vm: swap-in: %w", err)
	}
	if err := mg.mem.Write(pn.Base(), content); err != nil {
		return err
	}
	mg.swap.Release(e.swapSlot)
	mg.emit(trace.EvSwapIn, pid, pn, e.swapSlot)
	e.frame = pn
	e.present = true
	e.swapped = false
	e.swapSlot = 0
	f := mg.mem.Frame(pn)
	f.AddMapper(pid)
	f.Locked = e.locked
	_ = vp
	return nil
}

// SwapOutVictims evicts up to n unlocked, unshared resident pages from pid's
// space (front-to-back scan), returning how many were evicted. It models
// memory pressure hitting one process.
func (mg *Manager) SwapOutVictims(pid int, n int) (int, error) {
	s, err := mg.Space(pid)
	if err != nil {
		return 0, err
	}
	// Deterministic order: walk VMAs in mapping order.
	evicted := 0
	for _, v := range s.vmas {
		for vp := v.Start.Page(); vp < v.End.Page(); vp++ {
			if evicted >= n {
				return evicted, nil
			}
			e, ok := s.pt[vp]
			if !ok || !e.present || e.locked {
				continue
			}
			if mg.mem.Frame(e.frame).RefCount > 1 {
				continue
			}
			if err := mg.SwapOut(pid, vp.Base()); err != nil {
				// A full swap area stays full for the rest of the scan;
				// every later victim would fail identically, so stop.
				// Other failures (injected store I/O) skip this victim
				// only — its page stays mapped and intact.
				if errors.Is(err, ErrNoSwapSpace) {
					return evicted, nil
				}
				continue
			}
			evicted++
		}
	}
	return evicted, nil
}

// FrameOf returns the physical frame backing pid's page at addr, for tests
// and the scanner's ground truth.
func (mg *Manager) FrameOf(pid int, addr VAddr) (mem.PageNum, error) {
	s, err := mg.Space(pid)
	if err != nil {
		return 0, err
	}
	e, ok := s.pt[addr.Page()]
	if !ok || !e.present {
		return 0, fmt.Errorf("%w: pid %d addr %#x", ErrBadAddress, pid, addr)
	}
	return e.frame, nil
}

// DumpSpace serializes a process's resident memory image in VMA order —
// the payload of a core dump. Non-resident (swapped) pages are skipped
// without faulting, as a crash-time dumper would. With skipLocked, mlocked
// pages are replaced by zeros: the Scrash-style policy of scrubbing
// sensitive regions from crash dumps, with "sensitive" identified by the
// same mlock annotation RSA_memory_align applies to key material.
func (mg *Manager) DumpSpace(pid int, skipLocked bool) ([]byte, error) {
	s, err := mg.Space(pid)
	if err != nil {
		return nil, err
	}
	var out []byte
	zeros := make([]byte, mem.PageSize)
	for _, v := range s.vmas {
		for vp := v.Start.Page(); vp < v.End.Page(); vp++ {
			e, ok := s.pt[vp]
			if !ok || !e.present {
				continue
			}
			if skipLocked && e.locked {
				out = append(out, zeros...)
				continue
			}
			content, err := mg.mem.Read(e.frame.Base(), mem.PageSize)
			if err != nil {
				return nil, err
			}
			out = append(out, content...)
		}
	}
	return out, nil
}

// SharedWith reports whether pid's page at addr currently shares its frame
// with any other process (COW sharing still intact).
func (mg *Manager) SharedWith(pid int, addr VAddr) (bool, error) {
	pn, err := mg.FrameOf(pid, addr)
	if err != nil {
		return false, err
	}
	return mg.mem.Frame(pn).RefCount > 1, nil
}

// CheckConsistency verifies the manager's structural invariants against
// physical memory and the swap area, returning the first violation found.
// Like alloc.CheckConsistency it exists for tests and property harnesses —
// the fault matrix runs it after every injected-fault sweep to prove that
// no error path, organic or injected, leaves the VM layer torn:
//
//  1. No PTE is simultaneously present and swapped.
//  2. A present PTE references a valid, allocated frame that records the
//     owning process as a mapper, and its virtual page lies inside one of
//     the space's VMAs.
//  3. A frame's RefCount is at least the number of present PTEs that
//     reference it (non-VM holders may account for more, never fewer).
//  4. A swapped PTE's slot is in range and in use, and no two PTEs share a
//     slot (shared pages are never swapped).
func (mg *Manager) CheckConsistency() error {
	mapped := make(map[mem.PageNum]int)
	slotOwned := make(map[int]bool)
	for pid, s := range mg.spaces {
		for vp, e := range s.pt {
			if e.present && e.swapped {
				return fmt.Errorf("vm: pid %d vpage %d both present and swapped", pid, vp)
			}
			if e.present {
				if !mg.mem.ValidPage(e.frame) {
					return fmt.Errorf("vm: pid %d vpage %d maps invalid frame %d", pid, vp, e.frame)
				}
				f := mg.mem.Frame(e.frame)
				if f.State != mem.FrameAllocated {
					return fmt.Errorf("vm: pid %d vpage %d maps frame %d in state %v", pid, vp, e.frame, f.State)
				}
				if !f.HasMapper(pid) {
					return fmt.Errorf("vm: frame %d does not list mapper %d", e.frame, pid)
				}
				inVMA := false
				for _, v := range s.vmas {
					if v.Contains(vp.Base()) {
						inVMA = true
						break
					}
				}
				if !inVMA {
					return fmt.Errorf("vm: pid %d vpage %d mapped outside every VMA", pid, vp)
				}
				mapped[e.frame]++
			}
			if e.swapped {
				if e.swapSlot < 0 || e.swapSlot >= mg.swap.Slots() {
					return fmt.Errorf("vm: pid %d vpage %d swapped to out-of-range slot %d", pid, vp, e.swapSlot)
				}
				if !mg.swap.SlotInUse(e.swapSlot) {
					return fmt.Errorf("vm: pid %d vpage %d swapped to released slot %d", pid, vp, e.swapSlot)
				}
				if slotOwned[e.swapSlot] {
					return fmt.Errorf("vm: swap slot %d referenced by more than one PTE", e.swapSlot)
				}
				slotOwned[e.swapSlot] = true
			}
		}
	}
	for pn, n := range mapped {
		if f := mg.mem.Frame(pn); f.RefCount < n {
			return fmt.Errorf("vm: frame %d refcount %d below its %d present mappings", pn, f.RefCount, n)
		}
	}
	return nil
}
