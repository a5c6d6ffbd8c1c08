package provision

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/fault"
	"memshield/internal/kernel"
	"memshield/internal/kernel/alloc"
	"memshield/internal/mem"
	"memshield/internal/stats"
)

func recipe() Recipe {
	return Recipe{
		Kernel: kernel.Config{MemPages: 512, DeallocPolicy: alloc.PolicyZeroOnFree},
		Keys: []Key{
			{Path: "/etc/keys/b.key", Bits: 512, Seed: 11},
			{Path: "/etc/keys/a.key", Bits: 512, Seed: 12},
			{Path: "/etc/keys/c.key", Bits: 512, Seed: 13},
		},
		Scramble:     true,
		ScrambleSeed: 5,
	}
}

func provision(t *testing.T, r Recipe) (*kernel.Kernel, []*rsakey.PrivateKey) {
	t.Helper()
	k, keys, err := Provision(r)
	if err != nil {
		t.Fatal(err)
	}
	return k, keys
}

// freeOrder drains the allocator and returns the frames in the order the
// free lists hand them out.
func freeOrder(t *testing.T, k *kernel.Kernel) []mem.PageNum {
	t.Helper()
	var order []mem.PageNum
	for {
		pn, err := k.Alloc().AllocPage(mem.OwnerKernel)
		if err != nil {
			return order
		}
		order = append(order, pn)
	}
}

func physical(t *testing.T, k *kernel.Kernel) []byte {
	t.Helper()
	b, err := k.Mem().Read(0, k.Mem().Size())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestKeysInstalledInRecipeOrder: each key file parses back to the key
// returned for it, the files were created in recipe order, and each key
// came from its own seed.
func TestKeysInstalledInRecipeOrder(t *testing.T) {
	r := recipe()
	k, keys := provision(t, r)
	if len(keys) != len(r.Keys) {
		t.Fatalf("%d keys returned, want %d", len(keys), len(r.Keys))
	}
	prevID := -1
	for i, spec := range r.Keys {
		id, err := k.FS().FileID(spec.Path)
		if err != nil {
			t.Fatal(err)
		}
		if id <= prevID {
			t.Errorf("%s: file %d created before file %d (want recipe order)", spec.Path, id, prevID)
		}
		prevID = id
		pem, err := k.ReadFile(spec.Path, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rsakey.ParsePEM(pem)
		if err != nil {
			t.Fatalf("%s: %v", spec.Path, err)
		}
		if !got.Equal(keys[i]) {
			t.Errorf("%s does not hold the key returned for it", spec.Path)
		}
		want, err := rsakey.Generate(stats.NewReader(spec.Seed), spec.Bits)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equal(keys[i]) {
			t.Errorf("%s: key not drawn from its seed", spec.Path)
		}
	}
}

// TestBootOrder: Provision is exactly kernel → key files → scramble, so a
// machine booted by hand in that order matches it frame for frame.
func TestBootOrder(t *testing.T) {
	r := recipe()
	got, _ := provision(t, r)

	want, err := kernel.New(r.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range r.Keys {
		key, err := rsakey.Generate(stats.NewReader(spec.Seed), spec.Bits)
		if err != nil {
			t.Fatal(err)
		}
		if err := InstallPEM(want, spec.Path, key); err != nil {
			t.Fatal(err)
		}
	}
	if err := want.ScrambleFreeMemory(r.ScrambleSeed); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(freeOrder(t, got), freeOrder(t, want)) {
		t.Error("free lists differ from kernel → keys → scramble")
	}
}

// TestProvisionDeterministic: one recipe, two boots, byte-identical
// physical memory and free-list order.
func TestProvisionDeterministic(t *testing.T) {
	a, _ := provision(t, recipe())
	b, _ := provision(t, recipe())
	if !bytes.Equal(physical(t, a), physical(t, b)) {
		t.Error("physical memory differs between two boots of one recipe")
	}
	if !slices.Equal(freeOrder(t, a), freeOrder(t, b)) {
		t.Error("free-list order differs between two boots of one recipe")
	}
}

// TestScrambleSwitch: without Scramble the free lists stay in boot order;
// with it they do not.
func TestScrambleSwitch(t *testing.T) {
	r := recipe()
	r.Scramble = false
	plain, _ := provision(t, r)
	order := freeOrder(t, plain)
	for i, pn := range order {
		if int(pn) != i {
			t.Fatalf("unscrambled boot: frame %d handed out at %d", pn, i)
		}
	}
	scrambled, _ := provision(t, recipe())
	if slices.Equal(order, freeOrder(t, scrambled)) {
		t.Error("Scramble left the free lists in boot order")
	}
}

// TestInstallFailsUnderFaultPlan: a key write the fault plan refuses is an
// error, not a panic. Replacing a cached key file evicts its pages, and
// the plan fails every eviction.
func TestInstallFailsUnderFaultPlan(t *testing.T) {
	r := recipe()
	r.Kernel.FaultPlan = &fault.Plan{Seed: 1, Rules: map[fault.Site]fault.Rule{fault.SiteEvict: {Prob: 1}}}
	k, keys := provision(t, r)
	path := r.Keys[0].Path
	if _, err := k.ReadFile(path, 0); err != nil {
		t.Fatal(err)
	}
	err := InstallPEM(k, path, keys[1])
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("InstallPEM under an evict fault = %v, want an injected error", err)
	}
}

// TestProvisionErrors: a bad kernel config or key spec is an error.
func TestProvisionErrors(t *testing.T) {
	if _, _, err := Provision(Recipe{}); err == nil {
		t.Error("zero-page machine: want error")
	}
	r := recipe()
	r.Keys[1].Bits = 8
	if _, _, err := Provision(r); err == nil {
		t.Error("8-bit key: want error")
	}
}
