// Package stats provides the small statistical and deterministic-randomness
// helpers the experiment harnesses share: seeded RNGs (so every figure is
// reproducible bit-for-bit), and the mean/rate aggregation the paper applies
// over its 15- and 20-trial attack runs.
package stats

import (
	"encoding/binary"
	"io"
	"math"
	"math/rand"
)

// NewRand returns a deterministic RNG for the given seed.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// golden is the splitmix64 increment (2^64 / phi), the constant that makes
// the Weyl sequence below equidistributed.
const golden = 0x9e3779b97f4a7c15

// mix64 is the splitmix64 finalizer (Steele, Lea & Flood; also xxhash's
// avalanche): a bijection on 64-bit values whose output bits each depend on
// every input bit. Because it is a bijection, distinct inputs can never
// collide.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Fill overwrites b with the splitmix64 stream for seed: word i is
// mix64(seed + (i+1)*golden), written little-endian, so a shorter fill is
// always a prefix of a longer one. It allocates nothing and costs one mix64
// per 8 bytes, where seeding a math/rand source costs a 4.9 KB state and
// hundreds of steps.
//
// Fill is the simulated servers' payload and nonce filler (session junk,
// transfer and request payloads, handshake nonces). It is never a key
// source: key generation and sealing prekeys use NewReader.
func Fill(b []byte, seed int64) {
	x := uint64(seed)
	for len(b) >= 8 {
		x += golden
		binary.LittleEndian.PutUint64(b, mix64(x))
		b = b[8:]
	}
	if len(b) > 0 {
		x += golden
		v := mix64(x)
		for i := range b {
			b[i] = byte(v)
			v >>= 8
		}
	}
}

// DeriveSeed derives an independent RNG stream seed from a base seed and a
// list of integer labels (experiment, grid point, trial, sub-stream, ...).
//
// It replaces the additive `base + ci*1000 + trial` style of seed layout,
// which collides as soon as two label combinations sum to the same offset
// (the original harness reused trial 7's stream for every column's
// settle phase, correlating trials that the figures average as
// independent). Each label is folded through the splitmix64 finalizer, so
// derived seeds behave like hashes: two derivations agree only if base and
// the full label sequence agree — order included — and any experiment's
// seed set can be asserted collision-free (see TestDeriveSeedUniqueness and
// the figures-level audit in internal/figures).
func DeriveSeed(base int64, labels ...int64) int64 {
	h := mix64(uint64(base) + golden)
	for _, l := range labels {
		h = mix64(h + golden + mix64(uint64(l)+golden))
	}
	return int64(h)
}

// NewReader returns a deterministic io.Reader of pseudo-random bytes, used
// to drive key generation reproducibly.
func NewReader(seed int64) io.Reader {
	return rand.New(rand.NewSource(seed))
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Rate returns successes/trials (0 for zero trials).
func Rate(successes, trials int) float64 {
	if trials == 0 {
		return 0
	}
	return float64(successes) / float64(trials)
}

// Min returns the minimum of xs (0 for empty input).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs (0 for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mu := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - mu
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}
