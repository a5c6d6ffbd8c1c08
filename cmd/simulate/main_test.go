package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestRunTimeline(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-server", "ssh", "-level", "integrated", "-mem-mb", "16", "-seed", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"OpenSSH timeline", "integrated", "tick", "> t"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestParseHelpers(t *testing.T) {
	if _, err := parseKind("apache"); err != nil {
		t.Fatal(err)
	}
	if _, err := parseKind("ftp"); err == nil {
		t.Fatal("bogus server should error")
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-server", "ftp"}, &out); err == nil {
		t.Fatal("bad server: want error")
	}
	if err := run([]string{"-level", "bogus"}, &out); err == nil {
		t.Fatal("bad level: want error")
	}
}

func TestRunWithPlotDir(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run([]string{"-server", "apache", "-level", "kernel",
		"-mem-mb", "16", "-seed", "4", "-plot-dir", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 { // counts.dat, counts.gp, locations.dat
		t.Fatalf("artifacts = %d, want 3", len(entries))
	}
}

// TestRunAcceptsSSHDSpelling: every spelling server.ParseKind accepts
// selects the same timeline.
func TestRunAcceptsSSHDSpelling(t *testing.T) {
	args := []string{"-level", "integrated", "-mem-mb", "8", "-seed", "3", "-server"}
	var ssh, sshd bytes.Buffer
	if err := run(append(args, "ssh"), &ssh); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "sshd"), &sshd); err != nil {
		t.Fatalf("-server sshd: %v", err)
	}
	if ssh.String() != sshd.String() {
		t.Error("-server sshd and -server ssh print different timelines")
	}
}
