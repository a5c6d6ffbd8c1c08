// Package provision is the one machine recipe every driver boots from.
// Each of the paper's experiments starts from the same setup
// (runsimulation.pl, Appendix 8.2): a kernel at some protection level, the
// RSA key file on disk, and free memory that is already fragmented.
// Provision performs exactly that boot, in that order: kernel, then each
// key file in the recipe's order, then the free-list scramble.
//
// Every seed is the caller's: the recipe mints no sub-streams of its own,
// so each driver keeps the derivation its goldens were recorded with.
// Starting servers stays with each caller (see internal/server).
package provision

import (
	"fmt"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/kernel"
	"memshield/internal/scrub"
	"memshield/internal/stats"
)

// Key is one key file to generate and install.
type Key struct {
	// Path is where the PEM file is written on the machine's filesystem.
	Path string
	// Bits is the RSA modulus size.
	Bits int
	// Seed is the keygen stream.
	Seed int64
}

// Recipe describes one machine boot.
type Recipe struct {
	// Kernel is the machine to boot.
	Kernel kernel.Config
	// Keys are generated and installed in order, before the scramble.
	Keys []Key
	// Scramble fragments and shuffles the free lists after the keys are
	// installed (kernel.ScrambleFreeMemory), seeded by ScrambleSeed.
	Scramble     bool
	ScrambleSeed int64
}

// Provision boots the recipe's machine and returns it with the installed
// keys, index-aligned with Recipe.Keys.
func Provision(r Recipe) (*kernel.Kernel, []*rsakey.PrivateKey, error) {
	k, err := kernel.New(r.Kernel)
	if err != nil {
		return nil, nil, err
	}
	keys := make([]*rsakey.PrivateKey, 0, len(r.Keys))
	for _, spec := range r.Keys {
		key, err := rsakey.Generate(stats.NewReader(spec.Seed), spec.Bits)
		if err != nil {
			return nil, nil, fmt.Errorf("key %s: %w", spec.Path, err)
		}
		if err := InstallPEM(k, spec.Path, key); err != nil {
			return nil, nil, fmt.Errorf("key %s: %w", spec.Path, err)
		}
		keys = append(keys, key)
	}
	if r.Scramble {
		if err := k.ScrambleFreeMemory(r.ScrambleSeed); err != nil {
			return nil, nil, err
		}
	}
	return k, keys, nil
}

// InstallPEM writes key's PEM file at path and scrubs the marshalled
// bytes, whether or not the write succeeded.
func InstallPEM(k *kernel.Kernel, path string, key *rsakey.PrivateKey) error {
	pem := key.MarshalPEM()
	defer scrub.Bytes(pem)
	return k.FS().WriteFile(path, pem)
}
