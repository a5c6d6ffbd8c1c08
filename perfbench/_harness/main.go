// Command perfbench is memshield's end-to-end benchmark. It runs one
// workload per invocation, from one process, through the repository's
// public entry points (fleet.Run for the fleets; the memshield facade plus
// the server, attack and keyfinder calls for the disclosure attacks), and
// prints one JSON result object as the last line of standard output.
//
// Usage, from the repository root (perfbench/run.py builds and runs it):
//
//	perfbench --workload fleet-sshd-integrated --seed 2007 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics: host cost of
// the simulator (throughput, set-up time, peak RSS, Go bytes allocated).
// With --trace 1 it instead drives one machine of each fleet config and the
// attack driver with spans around every call into a layer, and reports
// per-layer spans, work counters and single-operation probes.
//
// Key exposure of the simulated machines is exact for a seed, so it is not
// reported as a timed metric: it is checked. A fleet window whose copy
// count differs from its level's (12 at integrated, 0 at sealed), a
// protected attack cell that fails its protection audit, a recovered key
// that is not the installed one, or any simulated statistic that differs
// between two iterations of one seed marks the run incorrect, and the
// command exits 1 after printing the result.
//
// This is a host-side program: it reads the wall clock, which memlint's
// detrand rule forbids inside the memshield module. It is therefore its
// own module, kept in a directory the go tool and memlint do not walk.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one-line JSON object the benchmark contract asks for.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload or the traced run hands back to run: the
// result plus the correctness failures found along the way.
type outcome struct {
	res      result
	problems []string
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.res.Metrics == nil {
		o.res.Metrics = make(map[string]metric)
	}
	o.res.Metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workload is one named benchmark load.
type workload struct {
	name string
	run  func(seed int64, seconds float64, log io.Writer) (*outcome, error)
}

var workloads = []workload{
	{"fleet-sshd-integrated", func(seed int64, sec float64, log io.Writer) (*outcome, error) {
		return runFleet(sshdIntegrated, seed, sec, log)
	}},
	{"fleet-httpd-sealed-scan", func(seed int64, sec float64, log io.Writer) (*outcome, error) {
		return runFleet(httpdSealedScan, seed, sec, log)
	}},
	{"attack-disclosure", runAttack},
}

// workers is the fan-out of every parallel call the benchmark makes
// (fleet shards, scan shards, keyfinder chunks): two, or fewer on a
// smaller host, so no load runs more worker goroutines than CPUs.
func workers() int { return min(2, runtime.NumCPU()) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 2007, "workload seed")
	seconds := fs.Float64("seconds", 20, "measurement time budget in seconds")
	trace := fs.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	var names []string
	for i := range workloads {
		names = append(names, workloads[i].name)
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload {%s}, --seconds > 0, --trace 0|1\n",
			strings.Join(names, ","))
		return 2
	}
	var (
		out *outcome
		err error
	)
	if *trace == 1 {
		out, err = runTraced(*seed, *seconds, stdout)
	} else {
		out, err = w.run(*seed, *seconds, stdout)
	}
	if err == nil && out.res.Attempted < 1 {
		err = errors.New("workload attempted nothing")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out.res.Correct = len(out.problems) == 0
	for _, p := range out.problems {
		fmt.Fprintln(stderr, "perfbench: incorrect:", p)
	}
	line, err := json.Marshal(out.res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.res.Correct {
		return 1
	}
	return 0
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is not modified. An empty xs yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("peak rss: %q: %w", line, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("peak rss: no VmHWM line in /proc/self/status")
}

// allocatedMB returns the Go heap bytes allocated so far, in MB.
func allocatedMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / 1e6
}
