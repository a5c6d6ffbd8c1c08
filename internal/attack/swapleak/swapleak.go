// Package swapleak implements the swap-device disclosure surface from the
// paper's related work: an attacker who can read the raw swap partition —
// a stolen disk (Gutmann), an offline image, or a root-on-another-boot
// scenario — recovers whatever the VM wrote there, since swap is never
// scrubbed. The paper's RSA_memory_align defends by mlocking the key page
// so it can never be evicted; Provos's swap encryption defends by
// scrambling everything that is.
package swapleak

import (
	"memshield/internal/kernel"
	"memshield/internal/scan"
)

// Result captures one raw-device read.
type Result struct {
	// DeviceBytes is the size of the swap device image read.
	DeviceBytes int
	// SlotsInUse counts currently-occupied slots (stale slots also leak).
	SlotsInUse int
	// Encrypted reports whether the device uses swap encryption.
	Encrypted bool
	// Summary counts key-part matches on the raw device.
	Summary scan.Summary
	// Success is the usual criterion: any part recovered.
	Success bool
}

// Run reads the machine's entire swap device and searches it for the key.
// Unlike the in-RAM attacks this requires physical/offline access, not a
// kernel bug — which is why the paper treats swap as a surface to keep
// clean rather than an exploit to patch.
func Run(k *kernel.Kernel, patterns []scan.Pattern) Result {
	swap := k.VM().Swap()
	raw := swap.RawContents()
	sum := scan.CountInBuffer(raw, patterns)
	return Result{
		DeviceBytes: len(raw),
		SlotsInUse:  swap.UsedSlots(),
		Encrypted:   swap.Encrypted(),
		Summary:     sum,
		Success:     sum.Total > 0,
	}
}
