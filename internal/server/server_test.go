package server

import (
	"testing"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/kernel"
	"memshield/internal/protect"
	"memshield/internal/server/httpd"
	"memshield/internal/server/sshd"
	"memshield/internal/stats"
)

const keyPath = "/etc/keys/server.key"

func boot(t *testing.T) *kernel.Kernel {
	t.Helper()
	k, err := kernel.New(kernel.Config{MemPages: 2048, DeallocPolicy: protect.LevelIntegrated.KernelPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	key, err := rsakey.Generate(stats.NewReader(5), 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.FS().WriteFile(keyPath, key.MarshalPEM()); err != nil {
		t.Fatal(err)
	}
	return k
}

// drive runs one connection's life through a Handle and checks the
// server-side effects the adapter must forward: churn moves bytes,
// disconnect closes, stop stops.
func drive(t *testing.T, h Handle, moved func() int, active func() int) {
	t.Helper()
	if !h.Running() || h.PID() == 0 {
		t.Fatalf("fresh handle: running=%v pid=%d", h.Running(), h.PID())
	}
	id, err := h.Connect()
	if err != nil {
		t.Fatal(err)
	}
	before := moved()
	if err := h.Churn(id, 4096); err != nil {
		t.Fatal(err)
	}
	if moved() <= before {
		t.Error("Churn moved no payload")
	}
	if err := h.Maintain(); err != nil {
		t.Fatal(err)
	}
	if err := h.Disconnect(id); err != nil {
		t.Fatal(err)
	}
	if n := active(); n != 0 {
		t.Errorf("%d connections open after Disconnect", n)
	}
	if err := h.Stop(); err != nil {
		t.Fatal(err)
	}
	if h.Running() {
		t.Error("Running after Stop")
	}
}

func TestSSHDHandle(t *testing.T) {
	s, err := sshd.Start(boot(t), sshd.Config{KeyPath: keyPath, Level: protect.LevelIntegrated, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := SSHD(s)
	if h.PID() != s.MasterPID() {
		t.Fatalf("PID = %d, want the master %d", h.PID(), s.MasterPID())
	}
	drive(t, h, func() int { return s.Stats().BytesMoved }, s.ActiveConnections)
}

func TestHTTPDHandle(t *testing.T) {
	s, err := httpd.Start(boot(t), httpd.Config{KeyPath: keyPath, Level: protect.LevelIntegrated, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := HTTPD(s)
	if h.PID() != s.ParentPID() {
		t.Fatalf("PID = %d, want the parent %d", h.PID(), s.ParentPID())
	}
	drive(t, h, func() int { return s.Stats().Requests }, s.ActiveConnections)
}

func TestParseKind(t *testing.T) {
	for _, tt := range []struct {
		in   string
		want Kind
		ok   bool
	}{
		{"ssh", KindSSHD, true},
		{"sshd", KindSSHD, true},
		{"openssh", KindSSHD, true},
		{"apache", KindHTTPD, true},
		{"httpd", KindHTTPD, true},
		{"", "", false},
		{"SSH", "", false},
		{"nginx", "", false},
	} {
		got, err := ParseKind(tt.in)
		if (err == nil) != tt.ok || got != tt.want {
			t.Errorf("ParseKind(%q) = %q, %v; want %q, ok=%v", tt.in, got, err, tt.want, tt.ok)
		}
	}
}
