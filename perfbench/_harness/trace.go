package main

import (
	"fmt"
	"io"
	"time"

	"memshield/internal/kernel"
	"memshield/internal/kernel/alloc"
	"memshield/internal/kernel/pagecache"
	"memshield/internal/server/httpd"
	"memshield/internal/server/sshd"
	"memshield/internal/trace"
)

// spanNames are the layer boundaries the traced run times from outside,
// named module.call. Every one is reported, in this order, with its calls,
// p50, p99, busy seconds and errors.
//
// Which end-to-end metric each layer should move, and where:
//   - kernel.boot, sshd.start, httpd.start: setup_s and peak_rss_mb on
//     every workload.
//   - sshd.*, the alloc.* and vm.* counters, and the libc, vm and mem
//     probes: conns_per_s and alloc_mb on fleet-sshd-integrated.
//   - httpd.* and the ssl.private_op_sealed_us − ssl.private_op_integrated_us
//     gap (the seal window): conns_per_s on fleet-httpd-sealed-scan.
//   - scan.*: conns_per_s on fleet-httpd-sealed-scan, barely on
//     fleet-sshd-integrated.
//   - rsakey.sign_crt_us: the RSA floor under both fleets.
//   - ttyleak.run, ext2leak.run, keyfinder.*: attack_trials_per_s on
//     attack-disclosure only.
var spanNames = []string{
	"kernel.boot", "sshd.start", "httpd.start",
	"sshd.connect", "sshd.transfer", "sshd.disconnect",
	"httpd.connect", "httpd.request", "httpd.disconnect", "httpd.maintain",
	"scan.scan", "ttyleak.run", "ext2leak.run", "keyfinder.search",
}

// counterNames are the work counters the traced run reads from the public
// Stats()/Mutations() accessors and a counting trace.Sink.
var counterNames = []string{
	"alloc.allocs", "alloc.frees", "alloc.pages_zeroed", "alloc.merges",
	"vm.forks", "vm.exits", "vm.cow_breaks", "vm.swap_outs",
	"mem.mutations", "pagecache.hits", "pagecache.misses",
	"sshd.handshakes", "sshd.bytes_moved",
	"httpd.handshakes", "httpd.requests", "httpd.workers_forked",
	"scan.frames_scanned", "scan.frames_cached",
	"keyfinder.recovered", "keyfinder.attempts",
}

// spanStats holds one span's samples.
type spanStats struct {
	durs   []float64 // seconds
	errors int64
}

// countSink counts kernel events by kind.
type countSink struct{ n [trace.EvSwapIn + 1]int64 }

// Emit implements trace.Sink.
func (c *countSink) Emit(e trace.Event) {
	if e.Kind >= 0 && int(e.Kind) < len(c.n) {
		c.n[e.Kind]++
	}
}

// tracer records spans around calls into layers, work counters, and the
// kernel events of every machine attached to it. A nil *tracer is valid
// and records nothing, so the untraced and traced runs share one code path.
type tracer struct {
	spans  map[string]*spanStats
	counts map[string]float64
	sink   countSink
	// folds read the counters of attached machines and servers; fold
	// runs and clears them once a machine is done.
	folds []func()
}

func newTracer() *tracer {
	return &tracer{spans: make(map[string]*spanStats), counts: make(map[string]float64)}
}

// span times fn under name.
func (t *tracer) span(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	start := time.Now()
	err := fn()
	d := time.Since(start).Seconds()
	s := t.spans[name]
	if s == nil {
		s = &spanStats{}
		t.spans[name] = s
	}
	s.durs = append(s.durs, d)
	if err != nil {
		s.errors++
	}
	return err
}

// count adds n to a work counter.
func (t *tracer) count(name string, n float64) {
	if t != nil {
		t.counts[name] += n
	}
}

// attach installs the counting sink on a machine's allocator and VM and
// arranges for its allocator, memory and page-cache counters — taken as a
// delta from now — to be folded in when the machine is done.
func (t *tracer) attach(k *kernel.Kernel) {
	if t == nil {
		return
	}
	k.Alloc().SetSink(&t.sink)
	k.VM().SetSink(&t.sink)
	a0, m0, c0 := k.Alloc().Stats(), k.Mem().Mutations(), k.Cache().Stats()
	t.onFold(func() {
		a, c := k.Alloc().Stats(), k.Cache().Stats()
		t.addAlloc(a, a0)
		t.count("mem.mutations", float64(k.Mem().Mutations()-m0))
		t.addCache(c, c0)
	})
}

func (t *tracer) addAlloc(a, a0 alloc.Stats) {
	t.count("alloc.allocs", float64(a.Allocs-a0.Allocs))
	t.count("alloc.frees", float64(a.Frees-a0.Frees))
	t.count("alloc.pages_zeroed", float64(a.PagesZeroed-a0.PagesZeroed))
	t.count("alloc.merges", float64(a.Merges-a0.Merges))
}

func (t *tracer) addCache(c, c0 pagecache.Stats) {
	t.count("pagecache.hits", float64(c.Hits-c0.Hits))
	t.count("pagecache.misses", float64(c.Misses-c0.Misses))
}

func (t *tracer) addSSHD(s sshd.Stats) {
	t.count("sshd.handshakes", float64(s.Handshakes))
	t.count("sshd.bytes_moved", float64(s.BytesMoved))
}

func (t *tracer) addHTTPD(s httpd.Stats) {
	t.count("httpd.handshakes", float64(s.Handshakes))
	t.count("httpd.requests", float64(s.Requests))
	t.count("httpd.workers_forked", float64(s.WorkersForked))
}

// onFold registers a counter read for when the current machine is done.
func (t *tracer) onFold(fn func()) {
	if t != nil {
		t.folds = append(t.folds, fn)
	}
}

// fold runs the pending counter reads.
func (t *tracer) fold() {
	if t == nil {
		return
	}
	for _, fn := range t.folds {
		fn()
	}
	t.folds = nil
}

// report writes every span, counter and probe into the outcome and checks
// the sink's allocator events against the allocator's own counters.
func (t *tracer) report(out *outcome) {
	for _, name := range spanNames {
		s := t.spans[name]
		if s == nil || len(s.durs) == 0 {
			out.fail("trace: span %s never ran", name)
			s = &spanStats{}
		}
		busy := 0.0
		for _, d := range s.durs {
			busy += d
		}
		out.set(name+".calls", float64(len(s.durs)), "count")
		out.set(name+".p50_us", quantile(s.durs, 0.5)*1e6, "us")
		out.set(name+".p99_us", quantile(s.durs, 0.99)*1e6, "us")
		out.set(name+".busy_s", busy, "s")
		out.set(name+".errors", float64(s.errors), "count")
	}
	t.counts["vm.forks"] = float64(t.sink.n[trace.EvFork])
	t.counts["vm.exits"] = float64(t.sink.n[trace.EvExit])
	t.counts["vm.cow_breaks"] = float64(t.sink.n[trace.EvCOWBreak])
	t.counts["vm.swap_outs"] = float64(t.sink.n[trace.EvSwapOut])
	for _, name := range counterNames {
		out.set(name, t.counts[name], "count")
	}
	ratio := 0.0
	if seen := t.counts["scan.frames_scanned"] + t.counts["scan.frames_cached"]; seen > 0 {
		ratio = t.counts["scan.frames_cached"] / seen
	}
	out.set("scan.cache_hit_ratio", ratio, "ratio")
	for kind, counter := range map[trace.Kind]string{
		trace.EvAlloc: "alloc.allocs", trace.EvFree: "alloc.frees", trace.EvZero: "alloc.pages_zeroed",
	} {
		if got := float64(t.sink.n[kind]); got != t.counts[counter] {
			out.fail("trace: %d %s events but %s = %v", t.sink.n[kind], kind, counter, t.counts[counter])
		}
	}
}

// runTraced is the per-layer run. It times single-operation probes, then
// drives one machine of each fleet config and one pass of the attack
// driver with spans on, and measures tracing overhead as the time of
// traced replays over untraced ones of the same machines.
func runTraced(seed int64, seconds float64, log io.Writer) (*outcome, error) {
	begin := time.Now()
	out := &outcome{}
	t := newTracer()
	if err := runProbes(seed, out); err != nil {
		return nil, err
	}

	specs := []fleetSpec{sshdIntegrated, httpdSealedScan}
	replayAll := func(t *tracer) (float64, []replayStats, error) {
		start := time.Now()
		var all []replayStats
		for _, spec := range specs {
			st, err := replay(spec, seed, t, out)
			if err != nil {
				return 0, nil, err
			}
			all = append(all, st)
		}
		return time.Since(start).Seconds(), all, nil
	}
	plain, want, err := replayAll(nil)
	if err != nil {
		return nil, err
	}
	traced, got, err := replayAll(t)
	if err != nil {
		return nil, err
	}
	untracedS, tracedS := []float64{plain}, []float64{traced}
	for i := range want {
		if got[i] != want[i] {
			out.fail("trace: tracing changed the simulation of %s: %+v vs %+v", specs[i].kind, got[i], want[i])
		}
		out.res.Attempted += got[i].Arrivals
		out.res.Failed += got[i].Errors + got[i].Shed
	}

	ast, err := attackPass(seed, t, out)
	if err != nil {
		return nil, err
	}
	out.res.Attempted += ast.Conns + ast.Captures

	// More untraced/traced pairs while the budget allows, alternating
	// which side runs first.
	for pair := 1; time.Since(begin).Seconds()+plain+traced < seconds; pair++ {
		order := []*tracer{nil, newTracer()}
		if pair%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, tr := range order {
			dt, _, err := replayAll(tr)
			if err != nil {
				return nil, err
			}
			if tr == nil {
				untracedS = append(untracedS, dt)
			} else {
				tracedS = append(tracedS, dt)
			}
		}
	}
	t.report(out)
	out.set("trace_overhead_frac", median(tracedS)/median(untracedS)-1, "frac")
	fmt.Fprintf(log, "traced seed=%d: replays untraced %.3v s, traced %.3v s; attack %d captures, %d recoveries\n",
		seed, untracedS, tracedS, ast.Captures, ast.Recoveries)
	return out, nil
}
