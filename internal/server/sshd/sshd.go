// Package sshd simulates the OpenSSH 4.3p2 server of the paper's case study
// (Section 5) on top of the simulated kernel, reproducing the memory
// behaviour that made its host key so easy to harvest:
//
//   - By default the server re-executes itself for every incoming
//     connection, so each connection's child process reloads the PEM file
//     and rebuilds the six BIGNUMs plus (after the handshake) the
//     Montgomery cache — a fresh set of key copies per connection.
//   - When the connection closes, the child exits and all of those copies
//     drop into unallocated memory, intact unless the kernel zeroes frees.
//
// With a copy-minimizing protection level the server instead runs with the
// undocumented -r option (no re-exec): children are plain forks that
// COW-share the master's single aligned, mlocked key page and never write
// to it, so the machine-wide copy count stays constant no matter how many
// connections are live.
package sshd

import (
	"errors"
	"fmt"
	"sort"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/crypto/seal"
	"memshield/internal/hsm"
	"memshield/internal/kernel"
	"memshield/internal/libc"
	"memshield/internal/protect"
	"memshield/internal/ssl"
	"memshield/internal/stats"
)

// Errors reported by the server.
var (
	ErrNotRunning = errors.New("sshd: server not running")
	ErrNoConn     = errors.New("sshd: no such connection")
	ErrHandshake  = errors.New("sshd: handshake verification failed")
)

// Config describes one server instance.
type Config struct {
	// KeyPath is the host key's PEM file in the simulated filesystem.
	KeyPath string
	// Level is the protection level to deploy.
	Level protect.Level
	// SessionBufferBytes is the per-connection session state size
	// (channel buffers, kex state). Default 16 KiB.
	SessionBufferBytes int
	// Seed drives the handshake nonces deterministically.
	Seed int64
	// SealEpoch selects the sealed master's provisioning generation
	// (LevelSealed only). Epoch 0 — the default — is the initial
	// out-of-band provisioning and derives the prekey stream exactly as
	// before this field existed, keeping every golden timeline
	// byte-identical. A supervisor re-provisioning after a fail-closed
	// destroy (internal/supervise) passes successive epochs, so each
	// generation seals under a fresh prekey and a disjoint epoch range.
	SealEpoch int64
	// HSM, when set, backs the host key with a hardware security module
	// slot instead of a PEM file: the key never enters machine memory at
	// all (the paper's "special hardware" endpoint). KeyPath and the
	// alignment machinery are unused in this mode.
	HSM *hsm.Slot
	// Tweaks applies individual copy-minimization measures on top of the
	// level, for ablation studies.
	Tweaks Tweaks
	// Status, when set, receives the run's fail-closed protection record:
	// Start failures refuse it, steady-state teardown failures degrade it.
	// When nil the server tracks one internally; read it with
	// Server.Status(). Passing it in lets a caller observe the refusal
	// reason even when Start returns a nil *Server.
	Status *protect.Status
}

// Tweaks toggles individual mitigation ingredients independently of the
// protection level (both default off; the copy-minimizing levels imply
// them).
type Tweaks struct {
	// NoReexec runs the server with the undocumented -r option alone:
	// per-connection children are plain forks that COW-share the
	// master's (unaligned) key instead of reloading it.
	NoReexec bool
	// DisableKeyCache clears RSA_FLAG_CACHE_PRIVATE without aligning,
	// so no Montgomery cache copies are ever built.
	DisableKeyCache bool
}

// Stats counts server activity.
type Stats struct {
	Connections int // total accepted
	Handshakes  int // RSA private ops performed
	BytesMoved  int // transfer payload bytes
	Disconnects int
}

// keyBackend is what a connection needs from the host key: the private
// operation and the public half. Software keys (ssl.RSA in simulated
// memory) and HSM slots both satisfy it.
type keyBackend struct {
	op  func([]byte) ([]byte, error)
	pub rsakey.PublicKey
}

// softwareBackend adapts an in-memory RSA object.
func softwareBackend(r *ssl.RSA) keyBackend {
	return keyBackend{op: r.PrivateOp, pub: r.PublicKey()}
}

type conn struct {
	id   int
	pid  int
	heap *libc.Heap
	key  keyBackend
}

// Server is one running simulated OpenSSH server.
type Server struct {
	k   *kernel.Kernel
	cfg Config

	masterPID  int
	masterHeap *libc.Heap
	masterRSA  *ssl.RSA // nil in HSM mode
	hsmKey     keyBackend

	conns    map[int]*conn
	nextConn int
	nonce    int64
	// scratch backs every payload the server writes into simulated memory
	// (see fill); heap writes copy it, so one buffer serves all of them.
	scratch []byte

	stats   Stats
	status  *protect.Status
	running bool
}

// Start boots the server: spawn the master process, load (and, per the
// level, align) the host key. Start is fail-closed: if any part of the
// deployment cannot be established — the PEM read, d2i, alignment, the
// mlock — the key material built so far is scrubbed (by the ssl layer),
// the master process is torn down, the protection status records the
// refusal, and an error is returned. A server that cannot deliver its
// configured level never runs at a silently weaker one.
func Start(k *kernel.Kernel, cfg Config) (*Server, error) {
	if cfg.SessionBufferBytes == 0 {
		cfg.SessionBufferBytes = 16 * 1024
	}
	if !cfg.Level.Valid() {
		cfg.Level = protect.LevelNone
	}
	status := cfg.Status
	if status == nil {
		status = protect.NewStatus(cfg.Level)
	}
	masterPID, err := k.Spawn(0, "sshd")
	if err != nil {
		err = fmt.Errorf("sshd: %w", err)
		status.Refuse(err.Error())
		return nil, err
	}
	masterHeap := libc.New(k, masterPID)
	s := &Server{
		k:          k,
		cfg:        cfg,
		masterPID:  masterPID,
		masterHeap: masterHeap,
		conns:      make(map[int]*conn),
		nonce:      cfg.Seed,
		status:     status,
		running:    true,
	}
	if cfg.HSM != nil {
		pub, err := cfg.HSM.PublicKey()
		if err != nil {
			return nil, s.refuse(fmt.Errorf("sshd: hsm: %w", err))
		}
		s.hsmKey = keyBackend{op: cfg.HSM.PrivateOp, pub: pub}
		return s, nil
	}
	masterRSA, err := loadHostKey(k, masterHeap, cfg)
	if err != nil {
		return nil, s.refuse(err)
	}
	s.masterRSA = masterRSA
	return s, nil
}

// refuse implements scrub-and-refuse for Start failures: the partially
// built key state has already been cleansed by the ssl layer's own
// fail-closed paths, so what remains is tearing down the master process
// and recording the refusal. Any teardown error is joined onto the cause.
func (s *Server) refuse(cause error) error {
	s.status.Refuse(cause.Error())
	s.running = false
	return errors.Join(cause, s.k.Exit(s.masterPID))
}

// loadHostKey performs the key_load_private_pem path for one process:
// read the PEM through the page cache (or around it with O_NOCACHE) and run
// d2i, applying the level's alignment strategy.
func loadHostKey(k *kernel.Kernel, heap *libc.Heap, cfg Config) (*ssl.RSA, error) {
	pem, err := k.ReadFile(cfg.KeyPath, cfg.Level.OpenFlags())
	if err != nil {
		return nil, fmt.Errorf("sshd: host key: %w", err)
	}
	var opts []ssl.LoadOption
	if cfg.Level.AlignAtLoad() {
		opts = append(opts, ssl.WithAutoAlign())
	}
	r, err := ssl.D2iPrivateKey(heap, pem, opts...)
	if err != nil {
		return nil, fmt.Errorf("sshd: host key: %w", err)
	}
	if cfg.Level.AppAlign() {
		if err := r.MemoryAlign(); err != nil {
			return nil, fmt.Errorf("sshd: host key: %w", err)
		}
	}
	if cfg.Tweaks.DisableKeyCache {
		if err := r.DisableCaching(); err != nil {
			return nil, fmt.Errorf("sshd: host key: %w", err)
		}
	}
	if cfg.Level.SealsAtRest() {
		// Encrypt the aligned region at rest. The prekey stream is derived
		// from the server seed (sub-stream 4; the nonce stream uses the raw
		// seed), so a given config always seals to the same ciphertext. A
		// re-provisioned generation (SealEpoch > 0) folds the epoch into
		// the derivation and starts the region's epoch counter in its own
		// disjoint range — fresh key material per generation. A seal that
		// cannot be established leaves plaintext behind — scrub it and
		// refuse.
		prekeySeed := stats.DeriveSeed(cfg.Seed, 4)
		var sealOpts []seal.Option
		if cfg.SealEpoch != 0 {
			prekeySeed = stats.DeriveSeed(cfg.Seed, 4, cfg.SealEpoch)
			sealOpts = append(sealOpts, seal.WithStartEpoch(uint64(cfg.SealEpoch)<<32))
		}
		if err := r.SealAtRest(stats.NewReader(prekeySeed), k.Injector(), sealOpts...); err != nil {
			return nil, errors.Join(fmt.Errorf("sshd: host key: %w", err), r.Free(true))
		}
	}
	return r, nil
}

// MasterPID returns the master process's PID.
func (s *Server) MasterPID() int { return s.masterPID }

// Status returns the run's fail-closed protection record.
func (s *Server) Status() *protect.Status { return s.status }

// Stats returns a snapshot of the activity counters.
func (s *Server) Stats() Stats { return s.stats }

// ActiveConnections returns the number of open connections.
func (s *Server) ActiveConnections() int { return len(s.conns) }

// Running reports whether the server is up.
func (s *Server) Running() bool { return s.running }

// Connect accepts one client connection: spawn the per-connection child
// (re-exec or fork per the level), perform the RSA handshake, and allocate
// session state. Returns the connection ID.
func (s *Server) Connect() (int, error) {
	if !s.running {
		return 0, ErrNotRunning
	}
	c := &conn{id: s.nextConn + 1}
	// childRSA is the re-exec child's own reloaded key, if any — the one
	// piece of connection state that must be scrubbed (not merely
	// abandoned) when a later step fails.
	var childRSA *ssl.RSA
	// abort rolls back a partially built connection: scrub the child's own
	// key copies, then exit the child, so no spawned process outlives a
	// failed Connect holding key material. Rollback errors join the cause.
	abort := func(cause error) (int, error) {
		s.noteSealCompromise()
		errs := []error{cause}
		if childRSA != nil {
			errs = append(errs, childRSA.Free(true))
		}
		errs = append(errs, s.k.Exit(c.pid))
		return 0, errors.Join(errs...)
	}
	switch {
	case s.cfg.HSM != nil:
		// Hardware-backed key: the child needs no key material at all.
		pid, err := s.k.Fork(s.masterPID, "sshd-child")
		if err != nil {
			return 0, fmt.Errorf("sshd: connect: %w", err)
		}
		c.pid = pid
		c.heap = s.masterHeap.Clone(pid)
		c.key = s.hsmKey
	case s.cfg.Level.SealsAtRest():
		// Sealed key: the child is a plain fork, but instead of touching
		// the COW-shared region itself it delegates every private
		// operation to the master (the HSM pattern) — only the master's
		// address space ever holds the decrypt window, and the children
		// keep COW-shared ciphertext.
		pid, err := s.k.Fork(s.masterPID, "sshd-child")
		if err != nil {
			return 0, fmt.Errorf("sshd: connect: %w", err)
		}
		c.pid = pid
		c.heap = s.masterHeap.Clone(pid)
		c.key = softwareBackend(s.masterRSA)
	case s.cfg.Level.NoReexec() || s.cfg.Tweaks.NoReexec:
		// -r: plain fork; the child COW-shares the master's key.
		pid, err := s.k.Fork(s.masterPID, "sshd-child")
		if err != nil {
			return 0, fmt.Errorf("sshd: connect: %w", err)
		}
		c.pid = pid
		c.heap = s.masterHeap.Clone(pid)
		c.key = softwareBackend(s.masterRSA.CloneFor(c.heap))
	default:
		// Default OpenSSH: the child re-executes itself, which gives it a
		// fresh address space that must reload the host key. (Exec is
		// modelled as spawning the fresh post-exec image.)
		pid, err := s.k.Spawn(s.masterPID, "sshd-child")
		if err != nil {
			return 0, fmt.Errorf("sshd: connect: %w", err)
		}
		c.pid = pid
		c.heap = libc.New(s.k, pid)
		rsa, err := loadHostKey(s.k, c.heap, s.cfg)
		if err != nil {
			// loadHostKey's own fail-closed paths scrubbed the partial
			// key; the child process itself still has to go.
			return abort(err)
		}
		childRSA = rsa
		c.key = softwareBackend(rsa)
	}
	if err := s.handshake(c); err != nil {
		return abort(err)
	}
	// Session state (kex buffers, channel windows).
	sess, err := c.heap.Malloc(s.cfg.SessionBufferBytes)
	if err != nil {
		return abort(fmt.Errorf("sshd: connect: %w", err))
	}
	if err := c.heap.Write(sess, s.fill(s.cfg.SessionBufferBytes)); err != nil {
		return abort(err)
	}
	s.nextConn++
	s.conns[c.id] = c
	s.stats.Connections++
	return c.id, nil
}

// noteSealCompromise records the sealed-at-rest downgrade after a failed
// reseal destroyed the master key: the region was scrubbed (refusal, not
// plaintext), so every weaker guarantee still holds, but the sealed claim
// is gone and further handshakes will be refused.
func (s *Server) noteSealCompromise() {
	if s.masterRSA == nil {
		return
	}
	if compromised, cause := s.masterRSA.SealCompromised(); compromised {
		s.status.Degrade(protect.GuaranteeSealedAtRest,
			fmt.Sprintf("reseal failed, key destroyed fail-closed: %v", cause))
	}
}

// handshake models the SSH2 key exchange: client and server derive an
// exchange hash, and the server proves possession of the host key by
// producing a PKCS#1 v1.5 signature over it — a real CRT computation over
// the real key bytes in simulated memory (or inside the HSM), verified
// against the public key like the client would.
func (s *Server) handshake(c *conn) error {
	s.nonce++
	pub := c.key.pub
	exchangeHash := s.fill(32)
	em, err := rsakey.EncodePKCS1v15(exchangeHash, (pub.N.BitLen()+7)/8)
	if err != nil {
		return fmt.Errorf("sshd: handshake: %w", err)
	}
	sig, err := c.key.op(em)
	if err != nil {
		return fmt.Errorf("sshd: handshake: %w", err)
	}
	if err := pub.VerifyPKCS1v15(exchangeHash, sig); err != nil {
		return fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	s.stats.Handshakes++
	return nil
}

// fill returns the first n bytes of the scratch buffer (grown on demand)
// filled with the current nonce's stream. The slice is only valid until the
// next fill.
func (s *Server) fill(n int) []byte {
	if cap(s.scratch) < n {
		s.scratch = make([]byte, n)
	}
	b := s.scratch[:n]
	stats.Fill(b, s.nonce)
	return b
}

// Transfer moves n payload bytes over a connection, churning heap buffers
// the way scp's channel pipeline does: allocate, fill, free without
// clearing.
func (s *Server) Transfer(connID, n int) error {
	c, ok := s.conns[connID]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoConn, connID)
	}
	const chunk = 32 * 1024
	remaining := n
	for remaining > 0 {
		sz := chunk
		if sz > remaining {
			sz = remaining
		}
		buf, err := c.heap.Malloc(sz)
		if err != nil {
			return fmt.Errorf("sshd: transfer: %w", err)
		}
		s.nonce++
		if err := c.heap.Write(buf, s.fill(sz)); err != nil {
			return err
		}
		if err := c.heap.Free(buf); err != nil {
			return err
		}
		remaining -= sz
	}
	s.stats.BytesMoved += n
	return nil
}

// Disconnect closes a connection: the child exits and its pages — including
// any per-connection key copies — return to the kernel. If the exit cannot
// complete (pages stranded mid-teardown), the copy-minimization guarantee
// is conservatively degraded: stranded allocated pages may hold key-derived
// state the level promised would not accumulate.
func (s *Server) Disconnect(connID int) error {
	c, ok := s.conns[connID]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoConn, connID)
	}
	delete(s.conns, connID)
	s.stats.Disconnects++
	if err := s.k.Exit(c.pid); err != nil {
		s.status.Degrade(protect.GuaranteeCopyMinimized,
			fmt.Sprintf("connection %d teardown incomplete: %v", connID, err))
		return err
	}
	return nil
}

// Stop shuts the server down: all connections close, then the master exits,
// dropping its key copies into unallocated memory (t=22 in the paper's
// timeline).
func (s *Server) Stop() error {
	if !s.running {
		return ErrNotRunning
	}
	ids := make([]int, 0, len(s.conns))
	for id := range s.conns {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var errs []error
	for _, id := range ids {
		if err := s.Disconnect(id); err != nil {
			// Best effort: a stuck child must not keep every other
			// child (and the master's key) alive. Disconnect already
			// degraded the status.
			errs = append(errs, err)
		}
	}
	s.running = false
	if err := s.k.Exit(s.masterPID); err != nil {
		s.status.Degrade(protect.GuaranteeCopyMinimized,
			fmt.Sprintf("master teardown incomplete: %v", err))
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
