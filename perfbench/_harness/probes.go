package main

import (
	"fmt"
	"time"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/kernel"
	"memshield/internal/kernel/alloc"
	"memshield/internal/kernel/vm"
	"memshield/internal/libc"
	"memshield/internal/mem"
	"memshield/internal/scrub"
	"memshield/internal/ssl"
	"memshield/internal/stats"
)

// probeSamples is the number of timed batches per probe; the median batch
// time per operation is reported.
const probeSamples = 31

// probe times batch calls of op per sample and records the median
// per-call time in microseconds under name.
func probe(out *outcome, name string, batch int, op func() error) error {
	samples := make([]float64, 0, probeSamples)
	for s := 0; s < probeSamples; s++ {
		start := time.Now()
		for i := 0; i < batch; i++ {
			if err := op(); err != nil {
				return fmt.Errorf("probe %s: %w", name, err)
			}
		}
		samples = append(samples, time.Since(start).Seconds()/float64(batch))
	}
	out.set(name, median(samples)*1e6, "us")
	return nil
}

// runProbes times the layers only reachable inside server calls, one
// operation at a time, at the workloads' sizes: 512-bit keys, 4 KiB
// payloads and pages.
func runProbes(seed int64, out *outcome) error {
	key, err := rsakey.Generate(stats.NewReader(stats.DeriveSeed(seed, 9)), attackKeyBits)
	if err != nil {
		return fmt.Errorf("probe keygen: %w", err)
	}
	msg := make([]byte, key.Size()-1)
	for i := range msg {
		msg[i] = byte(i + 1)
	}
	if err := probe(out, "rsakey.sign_crt_us", 20, func() error {
		_, err := key.SignCRT(msg)
		return err
	}); err != nil {
		return err
	}

	k, err := kernel.New(kernel.Config{MemPages: 4096, DeallocPolicy: alloc.PolicyZeroOnFree})
	if err != nil {
		return fmt.Errorf("probe boot: %w", err)
	}
	pid, err := k.Spawn(0, "probe")
	if err != nil {
		return fmt.Errorf("probe spawn: %w", err)
	}
	heap := libc.New(k, pid)
	load := func() (*ssl.RSA, error) {
		pem := key.MarshalPEM()
		defer scrub.Bytes(pem)
		return ssl.D2iPrivateKey(heap, pem, ssl.WithAutoAlign())
	}
	integrated, err := load()
	if err != nil {
		return fmt.Errorf("probe load key: %w", err)
	}
	sealed, err := load()
	if err != nil {
		return fmt.Errorf("probe load key: %w", err)
	}
	if err := sealed.SealAtRest(stats.NewReader(stats.DeriveSeed(seed, 10)), k.Injector()); err != nil {
		return fmt.Errorf("probe seal: %w", err)
	}
	for _, p := range []struct {
		name string
		r    *ssl.RSA
	}{{"ssl.private_op_integrated_us", integrated}, {"ssl.private_op_sealed_us", sealed}} {
		if err := probe(out, p.name, 10, func() error {
			_, err := p.r.PrivateOp(msg)
			return err
		}); err != nil {
			return err
		}
	}

	page := make([]byte, mem.PageSize)
	for i := range page {
		page[i] = byte(i)
	}
	if err := probe(out, "libc.malloc_write_free_us", 200, func() error {
		p, err := heap.Malloc(mem.PageSize)
		if err != nil {
			return err
		}
		if err := heap.Write(p, page); err != nil {
			return err
		}
		return heap.Free(p)
	}); err != nil {
		return err
	}

	// A parent with a few touched heap pages, forked the way an sshd
	// master forks a connection child.
	buf, err := heap.Malloc(4 * mem.PageSize)
	if err != nil {
		return fmt.Errorf("probe malloc: %w", err)
	}
	for off := 0; off < 4; off++ {
		if err := heap.Write(buf+vm.VAddr(off*mem.PageSize), page); err != nil {
			return fmt.Errorf("probe write: %w", err)
		}
	}
	if err := probe(out, "vm.fork_exit_us", 20, func() error {
		child, err := k.Fork(pid, "probe-child")
		if err != nil {
			return err
		}
		return k.Exit(child)
	}); err != nil {
		return err
	}
	// A COW break is the first write to a shared page after fork: fork
	// untimed, time the write, exit untimed.
	cow := make([]float64, 0, probeSamples)
	for s := 0; s < probeSamples; s++ {
		child, err := k.Fork(pid, "probe-child")
		if err != nil {
			return fmt.Errorf("probe fork: %w", err)
		}
		start := time.Now()
		werr := k.VM().Write(child, buf, []byte{1})
		cow = append(cow, time.Since(start).Seconds())
		if err := k.Exit(child); err != nil || werr != nil {
			return fmt.Errorf("probe cow break: %v, %v", werr, err)
		}
	}
	out.set("vm.cow_break_us", median(cow)*1e6, "us")
	if err := integrated.Free(true); err != nil {
		return fmt.Errorf("probe free key: %w", err)
	}
	if err := sealed.Free(true); err != nil {
		return fmt.Errorf("probe free key: %w", err)
	}

	for _, p := range []struct {
		name   string
		policy alloc.Policy
	}{{"alloc.alloc_free_retain_us", alloc.PolicyRetain}, {"alloc.alloc_free_zero_us", alloc.PolicyZeroOnFree}} {
		pk, err := kernel.New(kernel.Config{MemPages: 1024, DeallocPolicy: p.policy})
		if err != nil {
			return fmt.Errorf("probe boot: %w", err)
		}
		a := pk.Alloc()
		if err := probe(out, p.name, 1000, func() error {
			pn, err := a.AllocPage(mem.OwnerUser)
			if err != nil {
				return err
			}
			return a.Free(pn)
		}); err != nil {
			return err
		}
	}

	pn, err := k.Alloc().AllocPage(mem.OwnerKernel)
	if err != nil {
		return fmt.Errorf("probe alloc: %w", err)
	}
	m := k.Mem()
	if err := probe(out, "mem.write_page_us", 1000, func() error {
		return m.Write(pn.Base(), page)
	}); err != nil {
		return err
	}
	return probe(out, "mem.zero_page_us", 1000, func() error {
		return m.ZeroPage(pn)
	})
}
