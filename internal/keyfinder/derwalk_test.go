package keyfinder

import (
	"bytes"
	"fmt"
	"testing"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/stats"
)

// refSearchDER is the per-byte DER walk the memchr-driven searchDER
// replaced, kept verbatim as the reference the differential tests compare
// against: it tests every offset and consults done before each one.
func refSearchDER(image []byte, pub rsakey.PublicKey, res *Result, done func() bool) {
	for off := 0; off+2 <= len(image) && !done(); off++ {
		if image[off] != 0x30 {
			continue
		}
		var total int
		switch b := image[off+1]; {
		case b < 0x80:
			total = 2 + int(b)
		case b == 0x81:
			if off+3 > len(image) {
				continue
			}
			total = 3 + int(image[off+2])
		case b == 0x82:
			if off+4 > len(image) {
				continue
			}
			total = 4 + int(image[off+2])<<8 + int(image[off+3])
		default:
			continue
		}
		if total < 16 || off+total > len(image) {
			continue
		}
		key, err := rsakey.ParseDER(image[off : off+total])
		if err == nil && matchesPub(key, pub) {
			res.Hits = append(res.Hits, Hit{Offset: off, Method: MethodDER, Key: key})
		}
	}
}

// refSearch is Search with the reference DER walk in place of searchDER.
func refSearch(image []byte, pub rsakey.PublicKey, opts Options) Result {
	if opts.FactorStride <= 0 {
		opts.FactorStride = 1
	}
	var res Result
	done := func() bool {
		return opts.MaxHits > 0 && len(res.Hits) >= opts.MaxHits
	}
	searchPEM(image, pub, &res, done)
	if !done() {
		refSearchDER(image, pub, &res, done)
	}
	if !done() && !opts.SkipFactorScan {
		searchFactors(image, pub, &res, opts, done)
	}
	return res
}

// sameResult reports the first difference between two search results:
// hit count, each hit's offset, method and key, and Tested.
func sameResult(got, want Result) error {
	if got.Tested != want.Tested {
		return fmt.Errorf("Tested = %d, want %d", got.Tested, want.Tested)
	}
	if len(got.Hits) != len(want.Hits) {
		return fmt.Errorf("%d hits, want %d: %+v vs %+v", len(got.Hits), len(want.Hits), got.Hits, want.Hits)
	}
	for i, g := range got.Hits {
		w := want.Hits[i]
		if g.Offset != w.Offset || g.Method != w.Method || !g.Key.Equal(w.Key) {
			return fmt.Errorf("hit %d = (%d, %v), want (%d, %v)", i, g.Offset, g.Method, w.Offset, w.Method)
		}
	}
	return nil
}

// checkAgainstRef runs Search and the reference walk at MaxHits 0, 1 and
// 2 and fails on any difference.
func checkAgainstRef(t *testing.T, name string, image []byte, pub rsakey.PublicKey, base Options) {
	t.Helper()
	for _, maxHits := range []int{0, 1, 2} {
		opts := base
		opts.MaxHits = maxHits
		if err := sameResult(Search(image, pub, opts), refSearch(image, pub, opts)); err != nil {
			t.Fatalf("%s, MaxHits=%d: %v", name, maxHits, err)
		}
	}
}

func TestDERWalkMatchesPerByteReference(t *testing.T) {
	key := testKey(t)
	other, err := rsakey.Generate(stats.NewReader(777), 512)
	if err != nil {
		t.Fatal(err)
	}
	der, pem := key.MarshalDER(), key.MarshalPEM()
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	random := func(seed int64, n int) []byte {
		b := make([]byte, n)
		stats.NewRand(seed).Read(b)
		return b
	}
	lied := bytes.Clone(der)
	lied[1] = 0x81 // one-byte length form over a two-byte-length payload
	runs := bytes.Repeat([]byte{0x30}, 300)

	type derCase struct {
		name  string
		image []byte
	}
	cases := []derCase{
		{"empty", nil},
		{"single 0x30", []byte{0x30}},
		{"0x30 in last byte", append(random(1, 999), 0x30)},
		{"key then 0x30 in last byte", cat(der, []byte{0x30})},
		{"run of 0x30", runs},
		{"run of 0x30 around a key", cat(runs, der, runs)},
		{"run of 0x30 ending in a header", cat(runs, []byte{0x81}, runs[:2])},
		{"nested header", cat(der[:8], der)},
		{"decoy long-form headers", cat(bytes.Repeat([]byte{0x30, 0x82}, 64), der)},
		{"length-lying header", cat(lied, der)},
		{"declared length past the end", cat(der, []byte{0x30, 0x82, 0xff, 0xff})},
		{"truncated key", cat(der, der[:len(der)/2])},
		{"other key's DER", cat(other.MarshalDER(), der, other.MarshalDER())},
		{"PEM and DER mixed", cat(pem, random(2, 512), der, pem, der)},
		{"PEM, DER and bare factors", cat(der, key.P.Bytes(), pem, key.Q.Bytes(), der)},
	}
	for seed := int64(0); seed < 6; seed++ {
		img := random(100+seed, 8192)
		cases = append(cases,
			derCase{fmt.Sprintf("random seed %d, keys at 0 and flush against the end", seed), cat(der, img, der)},
			derCase{fmt.Sprintf("random seed %d, no key", seed), img},
		)
	}
	for _, c := range cases {
		checkAgainstRef(t, c.name, c.image, key.PublicKey, Options{})
		checkAgainstRef(t, c.name+" (no factor scan)", c.image, key.PublicKey, Options{SkipFactorScan: true})
	}

	// The planted keys at offset 0 and flush against the end are both
	// found, so the comparison above covers the first and last candidate.
	image := cat(der, random(100, 8192), der)
	res := Search(image, key.PublicKey, Options{SkipFactorScan: true})
	if len(res.Hits) != 2 || res.Hits[0].Offset != 0 || res.Hits[1].Offset != len(image)-len(der) {
		t.Fatalf("hits = %+v, want DER at 0 and %d", res.Hits, len(image)-len(der))
	}
}
