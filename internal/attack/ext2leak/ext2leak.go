// Package ext2leak implements the paper's first attack (Section 2),
// exploiting the ext2 directory-creation information leak: every directory
// created on the attacker's filesystem (the 16 MB USB stick of the paper)
// discloses up to 4072 bytes of stale kernel memory. The attacker creates
// thousands of directories, carries the stick away, and greps the captured
// blocks for the private key's byte patterns.
//
// The attack needs no privileges, and its yield depends on exactly the two
// knobs the paper sweeps in Figures 1 and 2: how many connections the
// server handled before the attack (how much key material was freed into
// memory) and how many directories are created (how much of the free-page
// pool is sampled).
package ext2leak

import (
	"errors"
	"fmt"

	"memshield/internal/kernel"
	"memshield/internal/kernel/alloc"
	"memshield/internal/kernel/fs"
	"memshield/internal/scan"
)

// Result captures one attack run.
type Result struct {
	// DirsRequested / DirsCreated: the attack stops early if the machine
	// runs out of pages for directory blocks.
	DirsRequested int
	DirsCreated   int
	// BytesCaptured is the size of the attacker's haul.
	BytesCaptured int
	// Captured is the haul itself (the USB stick's contents), in
	// directory-creation order: directory i contributed bytes
	// [i*fs.MaxLeakPerDir, (i+1)*fs.MaxLeakPerDir). Sweeps use it to
	// evaluate several directory-count prefixes from one run.
	Captured []byte
	// Summary counts key-part matches in the captured bytes.
	Summary scan.Summary
	// Success is the paper's criterion: any part of the key recovered.
	Success bool
}

// Run performs one attack: create dirs directories under a unique prefix,
// concatenate their leaked block tails, and search the haul for the key.
// The directories are removed afterwards (the attacker reformats the
// stick), releasing their pages.
func Run(k *kernel.Kernel, patterns []scan.Pattern, dirs int, trial int) (Result, error) {
	res := Result{DirsRequested: dirs}
	if dirs <= 0 {
		return res, errors.New("ext2leak: dirs must be positive")
	}
	// Every directory takes a page, so the haul never outgrows
	// min(dirs, pages) leaks: size it once instead of regrowing it.
	captured := make([]byte, 0, min(dirs, k.Mem().NumPages())*fs.MaxLeakPerDir)
	var created []string
	for i := 0; i < dirs; i++ {
		path := fmt.Sprintf("/usb/t%d/d%06d", trial, i)
		leak, err := k.FS().Mkdir(path)
		if err != nil {
			if errors.Is(err, alloc.ErrOutOfMemory) {
				break // stick/host full: attack proceeds with what it has
			}
			return res, fmt.Errorf("ext2leak: %w", err)
		}
		created = append(created, path)
		captured = append(captured, leak...)
	}
	res.DirsCreated = len(created)
	res.BytesCaptured = len(captured)
	res.Captured = captured
	res.Summary = scan.CountInBuffer(captured, patterns)
	res.Success = res.Summary.Total > 0
	for _, path := range created {
		if err := k.FS().RemoveDir(path); err != nil {
			return res, fmt.Errorf("ext2leak: cleanup: %w", err)
		}
	}
	return res, nil
}
