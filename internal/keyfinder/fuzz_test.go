package keyfinder

import (
	"bytes"
	"testing"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/stats"
)

// FuzzKeyfinderDERWalk drives the PEM/DER walk over adversarial memory
// images. The walk parses attacker-controlled bytes at every plausible
// SEQUENCE header, so it must tolerate truncated, overlapping, nested and
// length-lying structures without panicking, without reporting an offset
// outside the image, and without ever "recovering" a key that does not
// match the target public key. Its hits must also equal those of the
// per-byte reference walk at MaxHits 0, 1 and 2. The factor scan is
// skipped: it is pure big.Int arithmetic with no structural parsing, and
// exhaustive striding over fuzz inputs would drown the interesting DER
// coverage.
func FuzzKeyfinderDERWalk(f *testing.F) {
	// Fixed seed so corpus entries reproduce byte-for-byte across runs.
	key, err := rsakey.Generate(stats.NewReader(4242), 512)
	if err != nil {
		f.Fatal(err)
	}
	der := key.MarshalDER()

	f.Add(der)                                                  // clean structure
	f.Add(der[:len(der)/2])                                     // truncated mid-structure
	f.Add(append(der[:8:8], der...))                            // nested: real header inside a decoy prefix
	f.Add(append(bytes.Repeat([]byte{0x30, 0x82}, 64), der...)) // decoy headers before the key
	lied := bytes.Clone(der)
	lied[1] = 0x82 // wrong length form for the actual payload
	f.Add(lied)
	f.Add([]byte{0x30, 0x82, 0xff, 0xff})        // declared length beyond the image
	f.Add(append(key.MarshalPEM(), der[:20]...)) // PEM armor followed by DER debris
	f.Add([]byte{})
	f.Add(bytes.Repeat(der, 2))                         // two hits, MaxHits cuts between them
	f.Add(append(bytes.Repeat([]byte{0x30}, 32), 0x30)) // run of 0x30 up to the last byte

	pub := key.PublicKey
	f.Fuzz(func(t *testing.T, image []byte) {
		res := Search(image, pub, Options{SkipFactorScan: true})
		for _, h := range res.Hits {
			if h.Offset < 0 || h.Offset >= len(image) {
				t.Fatalf("hit offset %d outside %d-byte image", h.Offset, len(image))
			}
			if !matchesPub(h.Key, pub) {
				t.Fatal("recovered key does not match the target public key")
			}
			if err := h.Key.Validate(); err != nil {
				t.Fatalf("recovered key fails validation: %v", err)
			}
		}
		for _, maxHits := range []int{0, 1, 2} {
			opts := Options{SkipFactorScan: true, MaxHits: maxHits}
			if err := sameResult(Search(image, pub, opts), refSearch(image, pub, opts)); err != nil {
				t.Fatalf("MaxHits=%d: walk differs from the per-byte reference: %v", maxHits, err)
			}
		}
	})
}
