// Command attack mounts one of the paper's two memory-disclosure attacks
// against a freshly loaded simulated server and reports what it recovered.
//
// Usage:
//
//	attack -attack ext2 -server ssh -conns 100 -dirs 5000
//	attack -attack tty  -server apache -conns 50 -trials 20 -level integrated
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"memshield"
	"memshield/internal/protect"
	"memshield/internal/server"
	"memshield/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "attack:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("attack", flag.ContinueOnError)
	var (
		kind    = fs.String("attack", "ext2", "attack to mount: ext2 or tty")
		srvName = fs.String("server", "ssh", "victim server: ssh or apache")
		level   = fs.String("level", "none", "protection level deployed on the victim")
		conns   = fs.Int("conns", 50, "connections the server handles before the attack")
		dirs    = fs.Int("dirs", 2000, "directories to create (ext2 attack)")
		trials  = fs.Int("trials", 20, "dump trials (tty attack)")
		memMB   = fs.Int("mem-mb", 32, "simulated physical memory in MiB")
		seed    = fs.Int64("seed", 2007, "seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	lvl, err := protect.ParseLevel(*level)
	if err != nil {
		return err
	}
	srvKind, err := server.ParseKind(*srvName)
	if err != nil {
		return err
	}
	m, err := memshield.NewMachine(memshield.MachineConfig{
		MemoryMB: *memMB, Protection: lvl, Seed: *seed,
	})
	if err != nil {
		return err
	}
	key, err := m.InstallKey("/etc/ssl/private/server.key", 512)
	if err != nil {
		return err
	}

	var srv server.Handle
	switch srvKind {
	case server.KindSSHD:
		s, err := m.StartSSH(lvl, key.Path)
		if err != nil {
			return err
		}
		srv = server.SSHD(s)
	case server.KindHTTPD:
		s, err := m.StartApache(lvl, key.Path)
		if err != nil {
			return err
		}
		srv = server.HTTPD(s)
	}

	fmt.Fprintf(out, "victim: %s at level %s, %d connections, %d MiB RAM\n",
		*srvName, lvl, *conns, *memMB)
	ids := make([]int, 0, *conns)
	for i := 0; i < *conns; i++ {
		id, err := srv.Connect()
		if err != nil {
			return fmt.Errorf("connect %d: %w", i, err)
		}
		ids = append(ids, id)
	}

	switch *kind {
	case "ext2":
		// The ext2 attack harvests freed pages: close the connections
		// first, as the paper's script does.
		for _, id := range ids {
			if err := srv.Disconnect(id); err != nil {
				return err
			}
		}
		m.Tick()
		res, err := m.RunExt2Attack(key, *dirs)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "ext2 leak: %d directories created, %d bytes captured\n",
			res.DirsCreated, res.BytesCaptured)
		fmt.Fprintf(out, "key copies recovered: %d (by part: %v)\n", res.Summary.Total, res.Summary.ByPart)
		fmt.Fprintf(out, "attack success: %v\n", res.Success)
	case "tty":
		successes := 0
		total := 0.0
		for trial := 0; trial < *trials; trial++ {
			res, err := m.RunTTYAttack(key, int64(trial))
			if err != nil {
				return err
			}
			total += float64(res.Summary.Total)
			if res.Success {
				successes++
			}
		}
		fmt.Fprintf(out, "tty dump: %d trials, ~50%% of memory disclosed per trial\n", *trials)
		fmt.Fprintf(out, "avg key copies recovered: %.2f\n", total/float64(*trials))
		fmt.Fprintf(out, "success rate: %.2f\n", stats.Rate(successes, *trials))
	default:
		return fmt.Errorf("unknown attack %q (want ext2 or tty)", *kind)
	}
	return nil
}
