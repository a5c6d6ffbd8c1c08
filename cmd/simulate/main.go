// Command simulate runs the paper's 29-tick timeline experiment (the
// runsimulation.pl analog) for one server and protection level, printing
// the location scatter and the per-tick copy counts.
//
// Usage:
//
//	simulate -server ssh -level none
//	simulate -server apache -level integrated -mem-mb 64
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"memshield/internal/figures"
	"memshield/internal/mem"
	"memshield/internal/protect"
	"memshield/internal/server"
	"memshield/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}
}

// parseKind maps a -server name (server.ParseKind) onto the timeline's
// server kind.
func parseKind(s string) (sim.ServerKind, error) {
	kind, err := server.ParseKind(s)
	if err != nil {
		return 0, err
	}
	if kind == server.KindHTTPD {
		return sim.KindApache, nil
	}
	return sim.KindSSH, nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	var (
		srvName = fs.String("server", "ssh", "server to simulate: ssh or apache")
		level   = fs.String("level", "none", "protection level: none, application, library, kernel, integrated, secure-dealloc, sealed")
		memMB   = fs.Int("mem-mb", 32, "simulated physical memory in MiB")
		seed    = fs.Int64("seed", 2007, "simulation seed")
		plotDir = fs.String("plot-dir", "", "also write gnuplot .dat/.gp artifacts into this directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	kind, err := parseKind(*srvName)
	if err != nil {
		return err
	}
	lvl, err := protect.ParseLevel(*level)
	if err != nil {
		return err
	}
	fig, err := figures.Timeline(figures.Config{
		Seed:     *seed,
		MemPages: *memMB * 1024 * 1024 / mem.PageSize,
	}, kind, lvl)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, fig.Render())
	if *plotDir == "" {
		return nil
	}
	if err := os.MkdirAll(*plotDir, 0o755); err != nil {
		return err
	}
	prefix := fmt.Sprintf("timeline-%s-%s", kind, lvl)
	for name, content := range fig.Artifacts(prefix) {
		if err := os.WriteFile(filepath.Join(*plotDir, name), []byte(content), 0o644); err != nil {
			return err
		}
	}
	return nil
}
