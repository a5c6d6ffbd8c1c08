// Package ssl simulates the OpenSSL 0.9.7-era RSA machinery the paper
// patches, with every byte of private-key material living inside the
// simulated machine's physical memory (on the process heap from package
// libc), where the scanner and the disclosure attacks can see it.
//
// The modelled copy sources match the paper's analysis:
//
//   - D2iPrivateKey (d2i_PrivateKey + d2i_RSAPrivateKey) materializes the six
//     key parts as separately malloc'd BIGNUM buffers.
//   - The first private-key operation on an RSA object with
//     FlagCachePrivate set (OpenSSL's default) builds Montgomery contexts
//     that embed fresh copies of P and Q (RSA_eay_mod_exp's
//     _method_mod_p/_method_mod_q caches).
//   - Freeing without clearing (plain Free) leaves all of it readable in
//     heap chunks and, later, in unallocated pages.
//
// MemoryAlign is the paper's RSA_memory_align (Appendix 8.3/8.5): it moves
// all six parts onto one page-aligned, mlock'd region, zeroes and frees
// their old locations, marks them static, and clears the cache flags so no
// further copies are ever made. Combined with fork's copy-on-write, the key
// then exists exactly once in physical memory no matter how many server
// processes run.
package ssl

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/crypto/seal"
	"memshield/internal/fault"
	"memshield/internal/kernel/vm"
	"memshield/internal/libc"
	"memshield/internal/mem"
	"memshield/internal/scrub"
)

// Flags mirror OpenSSL's RSA flag bits that matter to the paper.
type Flags uint32

// RSA object flags.
const (
	// FlagCachePrivate enables the private-key Montgomery cache
	// (RSA_FLAG_CACHE_PRIVATE). Set by default, cleared by MemoryAlign.
	FlagCachePrivate Flags = 1 << iota
	// FlagCachePublic is the public-key counterpart.
	FlagCachePublic
	// FlagStaticData marks key data as living in the aligned static
	// region (BN_FLG_STATIC_DATA): individual BIGNUMs must not be freed.
	FlagStaticData
)

// Errors reported by the package.
var (
	ErrFreed      = errors.New("ssl: RSA object already freed")
	ErrNoPrivate  = errors.New("ssl: missing private key material")
	ErrNotAligned = errors.New("ssl: key not aligned")
)

// BigNum is an OpenSSL BIGNUM whose digits live in simulated process memory.
type BigNum struct {
	heap   *libc.Heap
	ptr    vm.VAddr
	size   int
	static bool
}

// newBigNum mallocs a buffer and stores value (big-endian) in it.
func newBigNum(h *libc.Heap, value []byte) (*BigNum, error) {
	if len(value) == 0 {
		value = []byte{0}
	}
	ptr, err := h.Malloc(len(value))
	if err != nil {
		return nil, err
	}
	if err := h.Write(ptr, value); err != nil {
		return nil, errors.Join(err, h.FreeZero(ptr))
	}
	return &BigNum{heap: h, ptr: ptr, size: len(value)}, nil
}

// Bytes reads the big-endian value back from simulated memory.
//
//memlint:source result=0
func (b *BigNum) Bytes() ([]byte, error) {
	return b.heap.Read(b.ptr, b.size)
}

// Int reads the value as a big.Int. The transient native copy is
// scrubbed; the big.Int itself is the documented math/big hole.
func (b *BigNum) Int() (*big.Int, error) {
	raw, err := b.Bytes()
	defer scrub.Bytes(raw)
	if err != nil {
		return nil, err
	}
	return new(big.Int).SetBytes(raw), nil
}

// Addr returns the virtual address of the digit buffer (for tests).
func (b *BigNum) Addr() vm.VAddr { return b.ptr }

// Size returns the buffer size in bytes.
func (b *BigNum) Size() int { return b.size }

// Static reports whether the BIGNUM lives in the aligned region.
func (b *BigNum) Static() bool { return b.static }

// RSA is an OpenSSL RSA object: public key host-side (public anyway),
// private parts as in-simulation BIGNUMs.
type RSA struct {
	heap *libc.Heap
	pub  rsakey.PublicKey

	d, p, q, dp, dq, qinv *BigNum

	flags Flags

	// Montgomery cache buffers (copies of P and Q), 0 when absent.
	montP, montQ vm.VAddr

	// Aligned region from MemoryAlign.
	aligned      vm.VAddr
	alignedPages int

	// sealed, when non-nil, keeps the aligned region encrypted at rest
	// (protect.LevelSealed); every private operation runs inside its
	// unseal→use→reseal window.
	sealed *seal.Region

	freed bool
}

// LoadOption configures D2iPrivateKey.
type LoadOption func(*loadConfig)

type loadConfig struct {
	autoAlign bool
}

// WithAutoAlign applies the paper's library-level patch: d2i_PrivateKey
// calls RSA_memory_align as soon as the RSA structure is filled in.
func WithAutoAlign() LoadOption {
	return func(c *loadConfig) { c.autoAlign = true }
}

// D2iPrivateKey loads a PEM-encoded private key into a process: the PEM
// text and the decoded DER transit the process heap (as in BIO/PEM_read),
// and the six key parts become heap BIGNUMs. The transient PEM/DER buffers
// are cleansed before release, matching OpenSSL's OPENSSL_cleanse hygiene in
// the PEM layer; the BIGNUMs themselves are the durable copies the paper
// tracks.
//
// The load is fail-closed: on any error — a malloc that fails mid-way, a
// refused mlock under WithAutoAlign — every buffer built so far (PEM text,
// DER bytes, finished BIGNUMs) is cleansed before the error returns, so a
// failed load never strands scannable key material on the heap.
func D2iPrivateKey(h *libc.Heap, pemData []byte, opts ...LoadOption) (*RSA, error) {
	var cfg loadConfig
	for _, o := range opts {
		o(&cfg)
	}
	// The file-read buffer: PEM text on the heap.
	pemBuf, err := h.Malloc(len(pemData))
	if err != nil {
		return nil, fmt.Errorf("ssl: d2i: %w", err)
	}
	if err := h.Write(pemBuf, pemData); err != nil {
		return nil, errors.Join(fmt.Errorf("ssl: d2i: %w", err), h.FreeZero(pemBuf))
	}
	key, err := rsakey.ParsePEM(pemData)
	if err != nil {
		// A failed scrub would leave PEM text live in simulated memory:
		// surface it alongside the parse error rather than dropping it.
		return nil, errors.Join(fmt.Errorf("ssl: d2i: %w", err), h.FreeZero(pemBuf))
	}
	// The base64-decoded DER buffer (d2i input) — contains d, p, q raw.
	// The host-side copy is scrubbed once it has been planted in simulated
	// memory; derBuf is the copy the experiments scan for.
	der := key.MarshalDER()
	defer scrub.Bytes(der)
	derBuf, err := h.Malloc(len(der))
	if err != nil {
		return nil, errors.Join(fmt.Errorf("ssl: d2i: %w", err), h.FreeZero(pemBuf))
	}
	if err := h.Write(derBuf, der); err != nil {
		return nil, errors.Join(fmt.Errorf("ssl: d2i: %w", err),
			h.FreeZero(derBuf), h.FreeZero(pemBuf))
	}
	r := &RSA{
		heap:  h,
		pub:   rsakey.PublicKey{N: new(big.Int).Set(key.N), E: new(big.Int).Set(key.E)},
		flags: FlagCachePrivate | FlagCachePublic,
	}
	parts := []struct {
		dst **BigNum
		val *big.Int
	}{
		{&r.d, key.D}, {&r.p, key.P}, {&r.q, key.Q},
		{&r.dp, key.Dp}, {&r.dq, key.Dq}, {&r.qinv, key.Qinv},
	}
	for i, part := range parts {
		bn, err := newBigNum(h, part.val.Bytes())
		if err != nil {
			errs := []error{fmt.Errorf("ssl: d2i: %w", err)}
			for _, built := range parts[:i] {
				errs = append(errs, h.FreeZero((*built.dst).ptr))
			}
			errs = append(errs, h.FreeZero(derBuf), h.FreeZero(pemBuf))
			return nil, errors.Join(errs...)
		}
		*part.dst = bn
	}
	// PEM-layer hygiene: cleanse the transient buffers.
	if err := h.FreeZero(derBuf); err != nil {
		return nil, errors.Join(fmt.Errorf("ssl: d2i: %w", err),
			r.Free(true), h.FreeZero(pemBuf))
	}
	if err := h.FreeZero(pemBuf); err != nil {
		return nil, errors.Join(fmt.Errorf("ssl: d2i: %w", err), r.Free(true))
	}
	if cfg.autoAlign {
		if err := r.MemoryAlign(); err != nil {
			// MemoryAlign scrubs on its own mid-move failures (r.freed is
			// then already set); a refusal before any move leaves the
			// unaligned parts intact — cleanse them here.
			errs := []error{err}
			if !r.freed {
				errs = append(errs, r.Free(true))
			}
			return nil, errors.Join(errs...)
		}
	}
	return r, nil
}

// Flags returns the object's flag bits.
func (r *RSA) Flags() Flags { return r.flags }

// Aligned reports whether MemoryAlign has been applied.
func (r *RSA) Aligned() bool { return r.flags&FlagStaticData != 0 }

// AlignedRegion returns the aligned region's base address and page count.
func (r *RSA) AlignedRegion() (vm.VAddr, int, error) {
	if !r.Aligned() {
		return 0, 0, ErrNotAligned
	}
	return r.aligned, r.alignedPages, nil
}

// PublicKey returns the (host-side) public half.
func (r *RSA) PublicKey() rsakey.PublicKey { return r.pub }

// Parts returns the six private BIGNUMs in PKCS#1 order (d, p, q, dp, dq,
// qinv), for tests and the scanner's ground truth.
func (r *RSA) Parts() []*BigNum {
	return []*BigNum{r.d, r.p, r.q, r.dp, r.dq, r.qinv}
}

// HasMontCache reports whether the private Montgomery cache exists.
func (r *RSA) HasMontCache() bool { return r.montP != 0 }

// MemoryAlign is the paper's RSA_memory_align:
//
//  1. posix_memalign one page-aligned region big enough for all six parts,
//  2. mlock it,
//  3. copy the parts in, zero and free their old buffers,
//  4. mark the BIGNUMs BN_FLG_STATIC_DATA,
//  5. clear RSA_FLAG_CACHE_PRIVATE | RSA_FLAG_CACHE_PUBLIC (and scrub any
//     cache that already exists).
//
// Afterwards the key occupies exactly one mlock'd page region that no code
// path ever writes, so COW keeps it single-copy across forks and it can
// never reach swap.
//
// MemoryAlign fails closed. A refusal before any part moves (posix_memalign
// fails, or mlock is denied — the region is then freed, never left behind
// as an unlocked mapping pretending to be protection) leaves the key's
// unaligned layout untouched. A failure after parts have started moving
// cannot be rolled back (their old buffers are already cleansed), so the
// object scrubs everything — aligned region, unmoved parts, Montgomery
// cache — and marks itself freed: better no key than a key whose
// protection claim is false.
func (r *RSA) MemoryAlign() error {
	if r.freed {
		return ErrFreed
	}
	if r.d == nil {
		return ErrNoPrivate
	}
	if r.Aligned() {
		return nil
	}
	total := 0
	for _, bn := range r.Parts() {
		total += bn.size
	}
	pages := (total + mem.PageSize - 1) / mem.PageSize
	base, err := r.heap.Memalign(pages)
	if err != nil {
		return fmt.Errorf("ssl: memory align: %w", err)
	}
	if err := r.heap.Mlock(base); err != nil {
		return errors.Join(fmt.Errorf("ssl: memory align: %w", err), r.heap.Free(base))
	}
	off := vm.VAddr(0)
	for i, bn := range r.Parts() {
		if err := r.movePart(bn, base+off); err != nil {
			return errors.Join(fmt.Errorf("ssl: memory align: %w", err), r.scrapAlign(base, i))
		}
		off += vm.VAddr(bn.size)
	}
	if err := r.dropMontCache(); err != nil {
		return errors.Join(fmt.Errorf("ssl: memory align: %w", err), r.scrapAlign(base, len(r.Parts())))
	}
	r.aligned = base
	r.alignedPages = pages
	r.flags &^= FlagCachePrivate | FlagCachePublic
	r.flags |= FlagStaticData
	return nil
}

// movePart copies one BIGNUM into the aligned region at dst and cleanses
// its old buffer. The BIGNUM's pointer is rebound only after every step
// succeeded, so a failed move leaves the part owning its old buffer.
func (r *RSA) movePart(bn *BigNum, dst vm.VAddr) error {
	val, err := bn.Bytes()
	defer scrub.Bytes(val)
	if err != nil {
		return err
	}
	if err := r.heap.Write(dst, val); err != nil {
		return err
	}
	if err := r.heap.FreeZero(bn.ptr); err != nil {
		return err
	}
	bn.ptr = dst
	bn.static = true
	return nil
}

// scrapAlign is MemoryAlign's scrub-and-refuse path after movedParts parts
// have been rebound into the region at base: it destroys the region (which
// already holds key bytes), cleanses the not-yet-moved parts' old buffers,
// drops any Montgomery cache, and marks the object freed. All steps are
// attempted; failures are joined.
func (r *RSA) scrapAlign(base vm.VAddr, movedParts int) error {
	var errs []error
	if n, err := r.heap.SizeOf(base); err == nil {
		errs = append(errs, r.heap.Zero(base, n))
	}
	errs = append(errs, r.heap.Free(base))
	for _, bn := range r.Parts()[movedParts:] {
		errs = append(errs, r.heap.FreeZero(bn.ptr))
	}
	errs = append(errs, r.dropMontCache())
	r.freed = true
	return errors.Join(errs...)
}

// dropMontCache scrubs and frees the Montgomery cache buffers if present.
func (r *RSA) dropMontCache() error {
	for _, ptr := range []vm.VAddr{r.montP, r.montQ} {
		if ptr == 0 {
			continue
		}
		if err := r.heap.FreeZero(ptr); err != nil {
			return err
		}
	}
	r.montP, r.montQ = 0, 0
	return nil
}

// ensureMontCache builds the private Montgomery cache on first use when
// FlagCachePrivate is set: two heap buffers holding byte-exact copies of P
// and Q (the moduli embedded in BN_MONT_CTX). These are the per-process
// copies that multiply with Apache's worker count.
func (r *RSA) ensureMontCache() error {
	if r.flags&FlagCachePrivate == 0 || r.montP != 0 {
		return nil
	}
	pBytes, err := r.p.Bytes()
	defer scrub.Bytes(pBytes)
	if err != nil {
		return err
	}
	qBytes, err := r.q.Bytes()
	defer scrub.Bytes(qBytes)
	if err != nil {
		return err
	}
	r.montP, err = r.heap.Malloc(len(pBytes))
	if err != nil {
		return err
	}
	if err := r.heap.Write(r.montP, pBytes); err != nil {
		return err
	}
	r.montQ, err = r.heap.Malloc(len(qBytes))
	if err != nil {
		return err
	}
	return r.heap.Write(r.montQ, qBytes)
}

// SealAtRest seals the aligned region (internal/crypto/seal): from here on
// the six key parts are ciphertext between operations, and PrivateOp /
// SignPKCS1v15 open a working window around each use. Requires MemoryAlign
// first — sealing individually malloc'd BIGNUMs would still leave the
// Montgomery cache and heap churn unprotected, so only the single-region
// layout is sealable. The prekey is drawn from prekeyRand; inj (may be
// nil) arms the SiteUnseal/SiteSeal fault sites. Options pass through to
// seal.New (re-provisioning sets the starting epoch per generation).
func (r *RSA) SealAtRest(prekeyRand io.Reader, inj *fault.Injector, opts ...seal.Option) error {
	if r.freed {
		return ErrFreed
	}
	if !r.Aligned() {
		return ErrNotAligned
	}
	if r.sealed != nil {
		return nil
	}
	total := 0
	for _, bn := range r.Parts() {
		total += bn.size
	}
	region, err := seal.New(r.heap, inj, r.aligned, total, prekeyRand, opts...)
	if err != nil {
		return fmt.Errorf("ssl: seal: %w", err)
	}
	r.sealed = region
	return nil
}

// SealCompromised reports whether a failed reseal destroyed the sealed
// region (the key is gone; its pages were scrubbed, never left plaintext),
// and the original cause.
func (r *RSA) SealCompromised() (bool, error) {
	if r.sealed == nil {
		return false, nil
	}
	return r.sealed.Destroyed()
}

// withKey runs fn on the materialized host-side key, inside the seal
// window when the key is sealed at rest. In the sealed path the
// materialized big.Int copies are scrubbed before the window closes —
// the window is exactly where a missed host-side copy would hide.
func (r *RSA) withKey(fn func(*rsakey.PrivateKey) ([]byte, error)) ([]byte, error) {
	if r.freed {
		return nil, ErrFreed
	}
	if r.d == nil {
		return nil, ErrNoPrivate
	}
	if r.sealed == nil {
		if err := r.ensureMontCache(); err != nil {
			return nil, err
		}
		key, err := r.materialize()
		if err != nil {
			return nil, err
		}
		return fn(key)
	}
	var out []byte
	err := r.sealed.WithOpen(func() error {
		key, kerr := r.materialize()
		if kerr != nil {
			return kerr
		}
		defer key.Zeroize()
		var ferr error
		out, ferr = fn(key)
		return ferr
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PrivateOp computes input^d mod n via CRT, reading every key part out of
// simulated memory (so a corrupted or scrubbed key genuinely fails). It is
// the primitive under both "decrypt the client's session-key blob" and
// "sign".
func (r *RSA) PrivateOp(input []byte) ([]byte, error) {
	return r.withKey(func(key *rsakey.PrivateKey) ([]byte, error) {
		return key.SignCRT(input)
	})
}

// SignPKCS1v15 produces an RSASSA-PKCS1-v1_5/SHA-256 signature using the
// key bytes in simulated memory (the host-key proof path), with the same
// cache behaviour as PrivateOp.
func (r *RSA) SignPKCS1v15(msg []byte) ([]byte, error) {
	return r.withKey(func(key *rsakey.PrivateKey) ([]byte, error) {
		return key.SignPKCS1v15(msg)
	})
}

// materialize reconstructs a host-side rsakey.PrivateKey from the bytes in
// simulated memory. The big.Int limb buffers hold real key material: the
// success path transfers all six to the caller inside the returned key;
// the error path scrubs the partial set before returning, so a half-built
// key never lingers on the native heap.
func (r *RSA) materialize() (*rsakey.PrivateKey, error) {
	ints := make([]*big.Int, 6)
	var err error
	for i, bn := range r.Parts() {
		ints[i], err = bn.Int()
		if err != nil {
			// A failed read leaves a partial set (including whatever the
			// failing conversion produced, stored above). Scrub each element
			// with a direct indexed sink call — the idiom the must-release
			// analysis credits (a range loop may run zero times, so it
			// proves nothing); scrubbing nil entries is a no-op.
			scrub.Big(ints[0])
			scrub.Big(ints[1])
			scrub.Big(ints[2])
			scrub.Big(ints[3])
			scrub.Big(ints[4])
			scrub.Big(ints[5])
			return nil, err
		}
	}
	return &rsakey.PrivateKey{
		PublicKey: rsakey.PublicKey{N: r.pub.N, E: r.pub.E},
		D:         ints[0], P: ints[1], Q: ints[2],
		Dp: ints[3], Dq: ints[4], Qinv: ints[5],
	}, nil
}

// DisableCaching clears RSA_FLAG_CACHE_PRIVATE and RSA_FLAG_CACHE_PUBLIC
// without aligning the key, scrubbing any Montgomery cache that already
// exists. On its own this removes only the per-use copy amplification (an
// ablation ingredient); the paper's full measures also relocate and lock
// the key itself.
func (r *RSA) DisableCaching() error {
	if r.freed {
		return ErrFreed
	}
	if err := r.dropMontCache(); err != nil {
		return err
	}
	r.flags &^= FlagCachePrivate | FlagCachePublic
	return nil
}

// CloneFor returns a handle on the same RSA object for a forked child
// process, rebound to the child's heap. Virtual addresses are unchanged
// (fork preserves them); the physical frames stay COW-shared until someone
// writes. Flags and any existing Montgomery cache come along; a child whose
// parent never performed a private operation will build its own cache on
// first use — the per-worker copy multiplication seen in Apache prefork.
func (r *RSA) CloneFor(h *libc.Heap) *RSA {
	c := &RSA{
		heap:         h,
		pub:          rsakey.PublicKey{N: new(big.Int).Set(r.pub.N), E: new(big.Int).Set(r.pub.E)},
		flags:        r.flags,
		montP:        r.montP,
		montQ:        r.montQ,
		aligned:      r.aligned,
		alignedPages: r.alignedPages,
	}
	src := r.Parts()
	dst := []**BigNum{&c.d, &c.p, &c.q, &c.dp, &c.dq, &c.qinv}
	for i, bn := range src {
		if bn == nil {
			continue
		}
		*dst[i] = &BigNum{heap: h, ptr: bn.ptr, size: bn.size, static: bn.static}
	}
	return c
}

// Free releases the RSA object. With clear=true it behaves like
// BN_clear_free / OPENSSL_cleanse (scrub then free); with clear=false it is
// the plain BN_free path whose leftovers the paper's attacks harvest.
func (r *RSA) Free(clear bool) error {
	if r.freed {
		return ErrFreed
	}
	if r.Aligned() {
		// The parts live in the single aligned region.
		if clear {
			total := 0
			for _, bn := range r.Parts() {
				total += bn.size
			}
			if err := r.heap.Zero(r.aligned, total); err != nil {
				return err
			}
		}
		if err := r.heap.Free(r.aligned); err != nil {
			return err
		}
	} else {
		for _, bn := range r.Parts() {
			if bn == nil {
				continue
			}
			var err error
			if clear {
				err = r.heap.FreeZero(bn.ptr)
			} else {
				err = r.heap.Free(bn.ptr)
			}
			if err != nil {
				return err
			}
		}
		if clear {
			if err := r.dropMontCache(); err != nil {
				return err
			}
		} else {
			for _, ptr := range []vm.VAddr{r.montP, r.montQ} {
				if ptr == 0 {
					continue
				}
				if err := r.heap.Free(ptr); err != nil {
					return err
				}
			}
			r.montP, r.montQ = 0, 0
		}
	}
	if r.Aligned() && r.montP != 0 {
		// Aligned objects never hold a cache, but guard anyway.
		if err := r.dropMontCache(); err != nil {
			return err
		}
	}
	if r.sealed != nil {
		// The region's bytes were just zeroed (or deliberately abandoned
		// as ciphertext on the clear=false path); either way no further
		// window may open on the unmapped span.
		r.sealed.Invalidate()
	}
	r.freed = true
	return nil
}
