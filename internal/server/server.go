// Package server is the one way every driver talks to a simulated server:
// the timeline driver (internal/sim), the fleet engine (internal/fleet)
// and the supervisor (internal/supervise) all hold a Handle, whether it
// wraps a raw sshd/httpd server or a Supervisor around one.
//
// Starting a server stays with each caller: sshd.Start and httpd.Start
// take configs that really differ per caller (the fleet sizes the httpd
// pool, the supervisor passes its sealing epoch and run-wide status), so a
// shared Start would only forward them.
package server

import (
	"fmt"

	"memshield/internal/server/httpd"
	"memshield/internal/server/sshd"
)

// Kind names a server implementation.
type Kind string

// Kinds.
const (
	KindSSHD  Kind = "sshd"
	KindHTTPD Kind = "httpd"
)

// ParseKind reads a server name as the CLIs accept it: ssh, sshd or
// openssh for OpenSSH; apache or httpd for Apache.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "ssh", "sshd", "openssh":
		return KindSSHD, nil
	case "apache", "httpd":
		return KindHTTPD, nil
	default:
		return "", fmt.Errorf("unknown server %q (want ssh or apache)", s)
	}
}

// Handle is a running server as its drivers see it. Churn moves payload on
// an open connection (an scp transfer or an HTTP request); Maintain is the
// per-tick pool upkeep (httpd's MaintainSpares, nothing for sshd); PID is
// the master (sshd) or parent (httpd) process.
type Handle interface {
	Connect() (int, error)
	Churn(id, n int) error
	Disconnect(id int) error
	Maintain() error
	Stop() error
	PID() int
	Running() bool
}

// SSHD adapts an sshd server to Handle.
func SSHD(s *sshd.Server) Handle { return sshdHandle{s} }

// HTTPD adapts an httpd server to Handle.
func HTTPD(s *httpd.Server) Handle { return httpdHandle{s} }

// The adapters embed their server, so Connect, Disconnect, Stop and
// Running are the server's own methods.
type sshdHandle struct{ *sshd.Server }

func (h sshdHandle) Churn(id, n int) error { return h.Transfer(id, n) }
func (h sshdHandle) Maintain() error       { return nil }
func (h sshdHandle) PID() int              { return h.MasterPID() }

type httpdHandle struct{ *httpd.Server }

func (h httpdHandle) Churn(id, n int) error { return h.Request(id, n) }
func (h httpdHandle) Maintain() error       { return h.MaintainSpares() }
func (h httpdHandle) PID() int              { return h.ParentPID() }
