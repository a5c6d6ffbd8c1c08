package alloc

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"memshield/internal/fault"
	"memshield/internal/mem"
	"memshield/internal/trace"
)

// refAllocator is the buddy allocator as it was before its per-frame state
// moved into dense arrays: the same free stacks, with three maps for the
// free-head order, free-stack position and allocated-head order. It is
// kept here as the reference the array allocator is checked against.
type refAllocator struct {
	mem          *mem.Memory
	policy       Policy
	free         [MaxOrder + 1][]mem.PageNum
	freeIdx      map[mem.PageNum]int
	freePos      map[mem.PageNum]int
	allocated    map[mem.PageNum]int
	deferredZero []mem.PageNum
	sink         trace.Sink
	injector     *fault.Injector
	stats        Stats
}

func newRef(m *mem.Memory, policy Policy) *refAllocator {
	a := &refAllocator{
		mem:       m,
		policy:    policy,
		freeIdx:   make(map[mem.PageNum]int),
		freePos:   make(map[mem.PageNum]int),
		allocated: make(map[mem.PageNum]int),
	}
	n := mem.PageNum(m.NumPages())
	var pn mem.PageNum
	for pn < n {
		order := MaxOrder
		for order > 0 {
			size := mem.PageNum(1) << order
			if pn%size == 0 && pn+size <= n {
				break
			}
			order--
		}
		a.pushFree(pn, order)
		pn += mem.PageNum(1) << order
	}
	return a
}

func (a *refAllocator) emit(kind trace.Kind, pn mem.PageNum, aux int) {
	if a.sink != nil {
		a.sink.Emit(trace.Event{Kind: kind, Page: pn, Aux: aux})
	}
}

func (a *refAllocator) pushFree(pn mem.PageNum, order int) {
	a.freePos[pn] = len(a.free[order])
	a.free[order] = append(a.free[order], pn)
	a.freeIdx[pn] = order
}

func (a *refAllocator) removeFree(pn mem.PageNum, order int) {
	pos, ok := a.freePos[pn]
	if !ok {
		return
	}
	stack := a.free[order]
	last := len(stack) - 1
	if pos != last {
		moved := stack[last]
		stack[pos] = moved
		a.freePos[moved] = pos
	}
	a.free[order] = stack[:last]
	delete(a.freeIdx, pn)
	delete(a.freePos, pn)
}

func (a *refAllocator) SetPolicy(p Policy) error {
	switch p {
	case PolicyRetain, PolicyZeroOnFree, PolicySecureDealloc:
	default:
		return fmt.Errorf("alloc: unknown policy %d", int(p))
	}
	if a.policy == PolicySecureDealloc && p != PolicySecureDealloc {
		a.Tick()
	}
	a.policy = p
	return nil
}

func (a *refAllocator) FreePages() int {
	total := 0
	for order, stack := range a.free {
		total += len(stack) << order
	}
	return total
}

func (a *refAllocator) AllocPages(order int, owner mem.Owner) (mem.PageNum, error) {
	if order < 0 || order > MaxOrder {
		return 0, fmt.Errorf("alloc: order %d out of range [0,%d]", order, MaxOrder)
	}
	if err := a.injector.Fail(fault.SiteAllocPages); err != nil {
		return 0, fmt.Errorf("%w: %w", ErrOutOfMemory, err)
	}
	from := order
	for from <= MaxOrder && len(a.free[from]) == 0 {
		from++
	}
	if from > MaxOrder {
		return 0, fmt.Errorf("%w: no free block of order >= %d", ErrOutOfMemory, order)
	}
	stack := a.free[from]
	pn := stack[len(stack)-1]
	a.free[from] = stack[:len(stack)-1]
	delete(a.freeIdx, pn)
	delete(a.freePos, pn)
	for from > order {
		from--
		buddy := pn + (mem.PageNum(1) << from)
		a.pushFree(buddy, from)
		a.stats.Splits++
	}
	a.allocated[pn] = order
	size := mem.PageNum(1) << order
	for p := pn; p < pn+size; p++ {
		f := a.mem.Frame(p)
		f.State = mem.FrameAllocated
		f.Owner = owner
		f.RefCount = 1
		f.Locked = false
		f.ClearMappers()
	}
	a.stats.Allocs++
	a.emit(trace.EvAlloc, pn, order)
	return pn, nil
}

func (a *refAllocator) BlockOrder(pn mem.PageNum) (int, error) {
	order, ok := a.allocated[pn]
	if !ok {
		return 0, fmt.Errorf("alloc: page %d is not an allocated block head", pn)
	}
	return order, nil
}

func (a *refAllocator) zeroPage(pn mem.PageNum) error {
	if err := a.injector.Fail(fault.SiteZeroOnFree); err != nil {
		return err
	}
	return a.mem.ZeroPage(pn)
}

func (a *refAllocator) Free(pn mem.PageNum) error {
	order, ok := a.allocated[pn]
	if !ok {
		return fmt.Errorf("alloc: free of page %d which is not an allocated block head", pn)
	}
	size := mem.PageNum(1) << order
	if a.policy == PolicyZeroOnFree {
		for p := pn; p < pn+size; p++ {
			if err := a.zeroPage(p); err != nil {
				return fmt.Errorf("%w: %w", ErrZeroOnFree, err)
			}
		}
	}
	delete(a.allocated, pn)
	for p := pn; p < pn+size; p++ {
		f := a.mem.Frame(p)
		f.State = mem.FrameFree
		f.Owner = mem.OwnerNone
		f.RefCount = 0
		f.Locked = false
		f.ClearMappers()
	}
	switch a.policy {
	case PolicyZeroOnFree:
		for p := pn; p < pn+size; p++ {
			a.stats.PagesZeroed++
			a.emit(trace.EvZero, p, 0)
		}
	case PolicySecureDealloc:
		for p := pn; p < pn+size; p++ {
			a.deferredZero = append(a.deferredZero, p)
		}
	}
	a.stats.Frees++
	a.emit(trace.EvFree, pn, order)
	for order < MaxOrder {
		buddy := pn ^ (mem.PageNum(1) << order)
		if bOrder, ok := a.freeIdx[buddy]; !ok || bOrder != order {
			break
		}
		if int(buddy)+(1<<order) > a.mem.NumPages() {
			break
		}
		a.removeFree(buddy, order)
		if buddy < pn {
			pn = buddy
		}
		order++
		a.stats.Merges++
	}
	a.pushFree(pn, order)
	return nil
}

func (a *refAllocator) Tick() {
	pending := a.deferredZero[:0]
	for _, pn := range a.deferredZero {
		if a.mem.Frame(pn).State != mem.FrameFree {
			continue
		}
		if err := a.zeroPage(pn); err != nil {
			pending = append(pending, pn)
			continue
		}
		a.stats.PagesZeroed++
		a.emit(trace.EvZero, pn, 0)
	}
	a.deferredZero = pending
}

func (a *refAllocator) CheckConsistency() error {
	covered := make([]int, a.mem.NumPages())
	for order, stack := range a.free {
		for _, head := range stack {
			if got, ok := a.freeIdx[head]; !ok || got != order {
				return fmt.Errorf("free block %d order %d missing from index", head, order)
			}
			for p := head; p < head+(mem.PageNum(1)<<order); p++ {
				if int(p) >= len(covered) {
					return fmt.Errorf("free block %d order %d exceeds memory", head, order)
				}
				covered[p]++
				if a.mem.Frame(p).State != mem.FrameFree {
					return fmt.Errorf("page %d on free list but state %v", p, a.mem.Frame(p).State)
				}
			}
		}
	}
	for head, order := range a.allocated {
		for p := head; p < head+(mem.PageNum(1)<<order); p++ {
			if int(p) >= len(covered) {
				return fmt.Errorf("allocated block %d order %d exceeds memory", head, order)
			}
			covered[p]++
			if a.mem.Frame(p).State != mem.FrameAllocated {
				return fmt.Errorf("page %d allocated but state %v", p, a.mem.Frame(p).State)
			}
		}
	}
	for p, c := range covered {
		if c != 1 {
			return fmt.Errorf("page %d covered %d times, want exactly 1", p, c)
		}
	}
	if a.policy == PolicyZeroOnFree {
		for head, order := range a.freeIdx {
			for p := head; p < head+(mem.PageNum(1)<<order); p++ {
				if !a.mem.PageIsZero(p) {
					return fmt.Errorf("zero-on-free violated: free page %d is dirty", p)
				}
			}
		}
	}
	return nil
}

// recorder is a trace.Sink that keeps every event.
type recorder struct{ events []trace.Event }

func (r *recorder) Emit(e trace.Event) { r.events = append(r.events, e) }

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestArrayAllocatorMatchesMapReference drives the array allocator and the
// map reference through the same seeded random AllocPages / Free / Tick /
// SetPolicy / BlockOrder sequences, on twin memories with twin fault
// injectors, starting under each policy. After every operation the two
// must agree on the result and error, Stats, every free stack's contents
// and order, the trace so far, the deferred-zero queue and the mutation
// count (memory contents every 50 operations), and both must pass, or
// both fail, CheckConsistency: the array allocator's check may fail only
// on dirty free pages after a switch to zero-on-free, where the
// reference's fails too.
func TestArrayAllocatorMatchesMapReference(t *testing.T) {
	policies := []Policy{PolicyRetain, PolicyZeroOnFree, PolicySecureDealloc}
	for _, start := range policies {
		for seed := int64(1); seed <= 9; seed++ {
			rng := rand.New(rand.NewSource(seed*31 + int64(start)))
			// Odd sizes exercise buddies past the end of memory.
			pages := []int{1, 7, 64, 100, 257, 1030}[rng.Intn(6)]
			var plan *fault.Plan
			if seed%3 == 0 {
				plan = &fault.Plan{Seed: seed, Rules: map[fault.Site]fault.Rule{
					fault.SiteAllocPages: {Prob: 0.05},
					fault.SiteZeroOnFree: {Prob: 0.02},
				}}
			}
			mA, _ := mem.New(pages)
			mR, _ := mem.New(pages)
			a, err := New(mA, start)
			if err != nil {
				t.Fatal(err)
			}
			r := newRef(mR, start)
			var recA, recR recorder
			a.SetSink(&recA)
			r.sink = &recR
			a.SetInjector(fault.NewInjector(plan))
			r.injector = fault.NewInjector(plan)

			var live []mem.PageNum
			fill := make([]byte, 64)
			for step := 0; step < 400; step++ {
				var op, gotA, gotR string
				switch k := rng.Intn(20); {
				case k < 8:
					order := rng.Intn(4)
					if rng.Intn(25) == 0 {
						order = []int{-1, MaxOrder, MaxOrder + 1}[rng.Intn(3)]
					}
					owner := mem.Owner(rng.Intn(5))
					pa, ea := a.AllocPages(order, owner)
					pr, er := r.AllocPages(order, owner)
					op = fmt.Sprintf("AllocPages(%d)", order)
					gotA, gotR = fmt.Sprint(pa, errText(ea)), fmt.Sprint(pr, errText(er))
					if ea == nil && er == nil && pa == pr {
						live = append(live, pa)
						// Dirty the block so the policies have work.
						n := 1 + rng.Intn(len(fill))
						rng.Read(fill[:n])
						for p := pa; p < pa+(mem.PageNum(1)<<order); p++ {
							if err := mA.Write(p.Base(), fill[:n]); err != nil {
								t.Fatal(err)
							}
							if err := mR.Write(p.Base(), fill[:n]); err != nil {
								t.Fatal(err)
							}
						}
					}
				case k < 15:
					var pn mem.PageNum
					switch {
					case len(live) > 0 && rng.Intn(8) != 0:
						i := rng.Intn(len(live))
						pn = live[i]
						live = append(live[:i], live[i+1:]...)
					case rng.Intn(2) == 0:
						pn = mem.PageNum(pages + rng.Intn(3)) // past the end
					default:
						pn = mem.PageNum(rng.Intn(pages)) // often not a head
					}
					ea, er := a.Free(pn), r.Free(pn)
					op = fmt.Sprintf("Free(%d)", pn)
					gotA, gotR = errText(ea), errText(er)
					if _, berr := a.BlockOrder(pn); ea != nil && berr == nil {
						live = append(live, pn) // a faulted scrub keeps it allocated
					}
				case k < 17:
					a.Tick()
					r.Tick()
					op = "Tick"
				case k < 19:
					p := policies[rng.Intn(3)]
					if rng.Intn(10) == 0 {
						p = Policy(0)
					}
					op = fmt.Sprintf("SetPolicy(%v)", p)
					gotA, gotR = errText(a.SetPolicy(p)), errText(r.SetPolicy(p))
				default:
					pn := mem.PageNum(rng.Intn(pages + 2))
					oa, ea := a.BlockOrder(pn)
					or, er := r.BlockOrder(pn)
					op = fmt.Sprintf("BlockOrder(%d)", pn)
					gotA, gotR = fmt.Sprint(oa, errText(ea)), fmt.Sprint(or, errText(er))
				}
				where := fmt.Sprintf("start %v seed %d pages %d step %d %s", start, seed, pages, step, op)
				if gotA != gotR {
					t.Fatalf("%s: array %q, reference %q", where, gotA, gotR)
				}
				if a.Stats() != r.stats {
					t.Fatalf("%s: stats %+v, reference %+v", where, a.Stats(), r.stats)
				}
				if !reflect.DeepEqual(a.free, r.free) {
					t.Fatalf("%s: free stacks differ:\n%v\n%v", where, a.free, r.free)
				}
				if !reflect.DeepEqual(recA.events, recR.events) {
					t.Fatalf("%s: trace differs:\n%v\n%v", where, recA.events, recR.events)
				}
				if !reflect.DeepEqual(a.deferredZero, r.deferredZero) || a.FreePages() != r.FreePages() {
					t.Fatalf("%s: deferred %v / %d free, reference %v / %d", where,
						a.deferredZero, a.FreePages(), r.deferredZero, r.FreePages())
				}
				if mA.Mutations() != mR.Mutations() {
					t.Fatalf("%s: %d mutations, reference %d", where, mA.Mutations(), mR.Mutations())
				}
				if step%50 == 49 {
					vA, errA := mA.Read(0, mA.Size())
					vR, errR := mR.Read(0, mR.Size())
					if errA != nil || errR != nil || !bytes.Equal(vA, vR) {
						t.Fatalf("%s: memory contents differ", where)
					}
				}
				ca, cr := a.CheckConsistency(), r.CheckConsistency()
				if (ca == nil) != (cr == nil) {
					t.Fatalf("%s: CheckConsistency %v, reference %v", where, ca, cr)
				}
				if ca != nil && (a.Policy() != PolicyZeroOnFree || !strings.Contains(ca.Error(), "zero-on-free violated")) {
					t.Fatalf("%s: %v", where, ca)
				}
			}
		}
	}
}
