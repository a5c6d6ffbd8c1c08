package scan

import (
	"bytes"
	"reflect"
	"testing"

	"memshield/internal/mem"
)

// FuzzFindPlanted mirrors the der/pemfile fuzz targets for the scanner's
// pattern search: for arbitrary memory contents and an arbitrary planted
// pattern, the search must never panic and never miss the copy we know is
// there — the scanner is the experiments' ground truth, so a missed
// pattern silently undercounts key copies in every figure.
func FuzzFindPlanted(f *testing.F) {
	f.Add([]byte("stale page contents"), []byte("key"), uint16(7))
	f.Add([]byte{0, 0, 0, 0}, []byte{0}, uint16(0))
	f.Add([]byte("x"), []byte("toolongtofit"), uint16(3))
	f.Add([]byte{}, []byte{}, uint16(1))
	f.Fuzz(func(t *testing.T, buf []byte, pat []byte, off16 uint16) {
		patterns := []Pattern{{Part: PartD, Bytes: pat}}

		// Unplanted searches must never panic, whatever the inputs.
		_ = CountInBuffer(buf, patterns)
		_ = FindAllInBuffer(buf, patterns)

		// Splitting the buffer anywhere must not change the count.
		cut := 0
		if len(buf) > 0 {
			cut = int(off16) % (len(buf) + 1)
		}
		if got, want := CountInWrapped(buf[:cut], buf[cut:], patterns), CountInBuffer(buf, patterns); !reflect.DeepEqual(got, want) {
			t.Fatalf("CountInWrapped split at %d = %+v, want %+v", cut, got, want)
		}

		if len(pat) == 0 || len(pat) > len(buf) {
			return
		}
		// The mutator may hand over buf and pat sharing backing memory;
		// planting through an alias would corrupt the pattern itself, so
		// work on private copies.
		buf = append([]byte(nil), buf...)
		pat = append([]byte(nil), pat...)
		off := int(off16) % (len(buf) - len(pat) + 1)
		copy(buf[off:], pat)

		// Buffer search: the planted copy must be found at its offset.
		if got := CountInBuffer(buf, patterns); got.Total < 1 || got.ByPart[PartD] < 1 {
			t.Fatalf("CountInBuffer = %+v, want >= 1 for planted pattern %x at %d", got, pat, off)
		}
		found := false
		for _, m := range FindAllInBuffer(buf, patterns) {
			if m.Off == off && m.Len == len(pat) && m.Part == PartD {
				found = true
			}
			if !bytes.Equal(buf[m.Off:m.Off+m.Len], pat) {
				t.Fatalf("match at %d does not equal the pattern", m.Off)
			}
		}
		if !found {
			t.Fatalf("FindAllInBuffer missed planted pattern at %d (len %d)", off, len(pat))
		}

		// Physical-memory search: plant the same pattern in simulated RAM
		// and the linear scan must report its address.
		m, err := mem.New(4)
		if err != nil {
			t.Fatal(err)
		}
		addr := mem.Addr(off % m.Size())
		if int(addr)+len(pat) > m.Size() {
			addr = mem.Addr(m.Size() - len(pat))
		}
		if err := m.Write(addr, pat); err != nil {
			t.Fatal(err)
		}
		hit := false
		for _, a := range m.FindAll(pat) {
			if a == addr {
				hit = true
				break
			}
		}
		if !hit {
			t.Fatalf("mem.FindAll missed planted pattern at %d", addr)
		}
	})
}
