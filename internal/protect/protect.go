// Package protect enumerates the paper's countermeasure levels (Section 4)
// and maps each onto the concrete knobs of the simulated stack:
//
//   - LevelNone: the unpatched system of the threat assessment (Section 2).
//   - LevelApp: the application-level solution — the server calls
//     RSA_memory_align itself right after loading the key, and OpenSSH runs
//     with -r so the aligned page survives as a single COW-shared copy.
//   - LevelLibrary: the library-level solution — the patched
//     d2i_PrivateKey aligns automatically (same effect, no app changes).
//   - LevelKernel: the kernel-level solution — pages are zeroed in
//     free_hot_cold_page, so unallocated memory never holds keys, but
//     nothing stops duplication in allocated memory.
//   - LevelIntegrated: library + kernel + the O_NOCACHE flag that evicts
//     and scrubs the PEM file's page-cache entry. The paper's recommended
//     configuration.
//   - LevelSecureDealloc: the Chow et al. "secure deallocation" baseline
//     (zeroing within a short, predictable period after free), included as
//     the comparison ablation for the paper's "strictly better" claim.
//   - LevelSealed: beyond the paper — everything Integrated does, plus the
//     key's aligned region is kept encrypted at rest (MemShield-style
//     sealing, internal/crypto/seal) and decrypted only inside a
//     per-operation working window, so even the one residual copy the
//     paper's strongest level leaves is ciphertext to a scanner.
package protect

import (
	"fmt"

	"memshield/internal/kernel/alloc"
	"memshield/internal/kernel/fs"
)

// Level is one countermeasure configuration.
type Level int

// Countermeasure levels.
const (
	LevelNone Level = iota + 1
	LevelApp
	LevelLibrary
	LevelKernel
	LevelIntegrated
	LevelSecureDealloc
	LevelSealed
)

// All returns every level, in paper order (the beyond-paper sealed level
// comes last, as the strongest).
func All() []Level {
	return []Level{LevelNone, LevelApp, LevelLibrary, LevelKernel, LevelIntegrated, LevelSecureDealloc, LevelSealed}
}

func (l Level) String() string {
	switch l {
	case LevelNone:
		return "none"
	case LevelApp:
		return "application"
	case LevelLibrary:
		return "library"
	case LevelKernel:
		return "kernel"
	case LevelIntegrated:
		return "integrated"
	case LevelSecureDealloc:
		return "secure-dealloc"
	case LevelSealed:
		return "sealed"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// ParseLevel reads a level by its String name, as the CLIs accept it.
func ParseLevel(s string) (Level, error) {
	for _, l := range All() {
		if l.String() == s {
			return l, nil
		}
	}
	return 0, fmt.Errorf("unknown level %q (want none, application, library, kernel, integrated, secure-dealloc or sealed)", s)
}

// Valid reports whether l names a defined level.
func (l Level) Valid() bool {
	return l >= LevelNone && l <= LevelSealed
}

// KernelPolicy returns the page-deallocation policy the level requires.
func (l Level) KernelPolicy() alloc.Policy {
	switch l {
	case LevelKernel, LevelIntegrated, LevelSealed:
		return alloc.PolicyZeroOnFree
	case LevelSecureDealloc:
		return alloc.PolicySecureDealloc
	default:
		return alloc.PolicyRetain
	}
}

// OpenFlags returns the open(2) flags servers use for the key file.
func (l Level) OpenFlags() fs.OpenFlag {
	if l == LevelIntegrated || l == LevelSealed {
		return fs.ONoCache
	}
	return 0
}

// AlignAtLoad reports whether the patched library aligns inside
// d2i_PrivateKey.
func (l Level) AlignAtLoad() bool {
	return l == LevelLibrary || l == LevelIntegrated || l == LevelSealed
}

// AppAlign reports whether the application itself calls RSA_memory_align
// after loading the key.
func (l Level) AppAlign() bool { return l == LevelApp }

// NoReexec reports whether OpenSSH runs with the undocumented -r option so
// the master's (aligned) key is COW-inherited instead of reloaded per
// connection. Required by every copy-minimizing level.
func (l Level) NoReexec() bool {
	return l == LevelApp || l == LevelLibrary || l == LevelIntegrated || l == LevelSealed
}

// MinimizesCopies reports whether the level keeps the key single-copy in
// allocated memory.
func (l Level) MinimizesCopies() bool {
	return l == LevelApp || l == LevelLibrary || l == LevelIntegrated || l == LevelSealed
}

// ZeroesUnallocated reports whether the level guarantees key-free
// unallocated memory (secure-dealloc guarantees it only after its deferred
// window).
func (l Level) ZeroesUnallocated() bool {
	return l == LevelKernel || l == LevelIntegrated || l == LevelSecureDealloc || l == LevelSealed
}

// EvictsPEM reports whether the PEM file is kept out of the page cache.
func (l Level) EvictsPEM() bool { return l == LevelIntegrated || l == LevelSealed }

// SealsAtRest reports whether the key's aligned region is kept encrypted
// between operations (internal/crypto/seal), so a scanner outside the
// working window sees only ciphertext.
func (l Level) SealsAtRest() bool { return l == LevelSealed }
