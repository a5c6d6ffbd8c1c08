// Package scan reimplements the paper's scanmemory loadable kernel module:
// a linear search over the whole of (simulated) physical memory for the
// byte patterns of the private key, annotating every match with whether the
// containing frame is allocated or unallocated and which processes map it
// (via the frame reverse map, the 2.6-kernel rmap the original tool used).
//
// Following Section 2 of the paper, the patterns tracked as
// disclosure-equivalent "copies of the private key" are d, P, Q, and the
// PEM-encoded key file; the CRT residues are deliberately not counted.
//
// Since PR 5 the search runs on a three-layer engine (DESIGN.md §9): a
// single-pass multi-pattern dispatch (engine.go), a sharded parallel walk
// whose output is byte-identical at any worker count, and an incremental
// per-frame cache driven by the mem package's write generations, so a
// Scanner carried across timeline ticks re-walks only dirty frames.
//
// Sealed key memory (protect.LevelSealed) is invisible to this scanner by
// design: between operations the aligned region holds ciphertext, which
// never matches the plaintext d/P/Q patterns. A zero-match scan at the
// sealed level is therefore the expected ground truth, and core.Auditor
// treats any plaintext match under that level as a violation.
package scan

import (
	"fmt"
	"math/bits"
	"sort"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/kernel"
	"memshield/internal/mem"
	"memshield/internal/runner"
)

// Part identifies which key component a pattern or match refers to.
type Part int

// Key parts tracked by the scanner.
const (
	PartD Part = iota + 1
	PartP
	PartQ
	PartPEM
)

func (p Part) String() string {
	switch p {
	case PartD:
		return "d"
	case PartP:
		return "p"
	case PartQ:
		return "q"
	case PartPEM:
		return "pem"
	default:
		return fmt.Sprintf("Part(%d)", int(p))
	}
}

// Pattern is one byte string to hunt for.
type Pattern struct {
	Part  Part
	Bytes []byte
}

// PatternsFor derives the four disclosure-equivalent patterns from a key.
func PatternsFor(key *rsakey.PrivateKey) []Pattern {
	return []Pattern{
		{Part: PartD, Bytes: key.D.Bytes()},
		{Part: PartP, Bytes: key.P.Bytes()},
		{Part: PartQ, Bytes: key.Q.Bytes()},
		{Part: PartPEM, Bytes: key.MarshalPEM()},
	}
}

// Match is one located copy of a key part.
type Match struct {
	Addr      mem.Addr
	Part      Part
	Allocated bool
	Owner     mem.Owner
	PIDs      []int // processes mapping the frame (empty = kernel/none)
}

// Summary aggregates a scan.
type Summary struct {
	Total       int
	Allocated   int
	Unallocated int
	ByPart      map[Part]int
}

// Stats counts the scanner's incremental-cache behaviour, cumulatively
// over the Scanner's lifetime. Tests use the deltas between scans to
// assert that untouched frames are never re-walked.
type Stats struct {
	// Scans is the number of Scan calls.
	Scans int
	// FramesScanned counts frames whose bytes were actually re-walked.
	FramesScanned int
	// FramesCached counts frames served from the per-frame match cache.
	FramesCached int
}

// frameMatch is one cached match position: a pattern occurrence starting
// inside the frame, stored relative to the frame base.
type frameMatch struct {
	off int32
	pat int32 // index into Scanner.patterns
}

// frameCache is the incremental state for one frame.
type frameCache struct {
	// genSum is the sum of the write generations of the frames the scan
	// window covered ([f, f+span]) when matches was computed. Generations
	// are stamped from a monotonic memory-wide counter, so any write
	// inside the window changes the sum.
	genSum uint64
	// matches holds the pattern occurrences starting in the frame, in
	// (offset, pattern index) order.
	matches []frameMatch
}

// Scanner scans one machine for one key's patterns.
type Scanner struct {
	k        *kernel.Kernel
	patterns []Pattern
	eng      *dispatch
	workers  int
	// span is how many frames past its own a frame's scan window reaches:
	// ceil((maxLen-1)/PageSize), so boundary-straddling matches are owned
	// by the frame they start in.
	span int
	// cache is the per-frame incremental state, allocated on first Scan.
	cache []frameCache
	// hasMatch has bit f%64 of word f/64 set exactly when cache[f].matches
	// is non-empty; emit walks only those frames.
	hasMatch []uint64
	// primed is false until the first full walk has populated the cache.
	primed bool
	// lastMut is the memory's mutation counter at the end of the last
	// Scan; an unchanged counter proves every cached frame is still valid.
	lastMut uint64
	stats   Stats
	// gensInspected counts the frames whose window generation sum
	// rescanDirty computed — the per-frame work that block skipping
	// saves. Tests gate on it; it is not part of Stats.
	gensInspected int
}

// A hasMatch word must never straddle two blocks, or two shards would
// write it; this fails to compile unless BlockFrames is a multiple of 64.
const _ uint = -(mem.BlockFrames % 64)

// Options tunes a Scanner.
type Options struct {
	// Workers is the shard fan-out for the parallel walk. 0 means one per
	// CPU (runner.Workers); 1 is the sequential reference path. Results
	// are byte-identical at every value (DESIGN.md §7/§9).
	Workers int
}

// New creates a scanner. Patterns are typically PatternsFor(key).
func New(k *kernel.Kernel, patterns []Pattern) *Scanner {
	return NewWith(k, patterns, Options{})
}

// NewWith creates a scanner with explicit options.
func NewWith(k *kernel.Kernel, patterns []Pattern, opts Options) *Scanner {
	ps := make([]Pattern, len(patterns))
	copy(ps, patterns)
	eng := compile(ps)
	span := 0
	if eng.maxLen > 1 {
		span = (eng.maxLen - 2 + mem.PageSize) / mem.PageSize
	}
	return &Scanner{k: k, patterns: ps, eng: eng, workers: opts.Workers, span: span}
}

// Stats returns the scanner's cumulative incremental-cache counters.
func (s *Scanner) Stats() Stats { return s.stats }

// Scan performs the linear search and classifies every match.
//
// The walk is incremental: only frames whose write generation changed
// since the previous Scan (on this Scanner) are re-searched; everything
// else is served from the per-frame match cache. Classification
// (allocated/unallocated, owner, reverse-mapped PIDs) is always read
// fresh from the frame metadata, because frame state can change without
// any byte of the frame being written.
func (s *Scanner) Scan() []Match {
	m := s.k.Mem()
	numFrames := m.NumPages()
	view, err := m.View(0, m.Size())
	if err != nil || numFrames == 0 {
		return nil // View over the full range cannot fail on a valid Memory
	}
	if s.cache == nil {
		s.cache = make([]frameCache, numFrames)
		s.hasMatch = make([]uint64, (numFrames+63)/64)
	}
	s.stats.Scans++

	if mut := m.Mutations(); !s.primed || mut != s.lastMut {
		s.rescanDirty(m, view, numFrames)
		s.primed = true
		s.lastMut = m.Mutations()
	} else {
		s.stats.FramesCached += numFrames
	}
	return s.emit(m)
}

// rescanDirty walks the frames across worker shards, re-searching runs of
// consecutive dirty frames and keeping cached results for the rest. Shard
// boundaries never affect output: each frame's matches are a pure function
// of its own window, and commits go to disjoint per-frame slots.
//
// Once primed, a whole block of frames is skipped with the block
// generation compare of cleanBlock; only the frames of the blocks that
// fail it pay the per-frame generation-sum test. Shards are whole blocks,
// so each word of the match bitmap has exactly one writer.
func (s *Scanner) rescanDirty(m *mem.Memory, view []byte, numFrames int) {
	blocks := m.NumBlocks()
	workers := runner.Workers(s.workers)
	if workers > blocks {
		workers = blocks
	}
	perShard := (blocks + workers - 1) / workers * mem.BlockFrames
	shards := (numFrames + perShard - 1) / perShard
	type shardStats struct{ scanned, cached, inspected int }
	// Cells touch disjoint frame ranges of s.cache, so the ordered-commit
	// contract of runner.Map makes the walk race-free and deterministic.
	res, err := runner.Map(workers, shards, func(si int) (shardStats, error) {
		lo := si * perShard
		hi := lo + perShard
		if hi > numFrames {
			hi = numFrames
		}
		var st shardStats
		f := lo
		for f < hi {
			if s.primed && f%mem.BlockFrames == 0 && s.cleanBlock(m, f>>mem.BlockShift) {
				n := min(mem.BlockFrames, hi-f)
				st.cached += n
				f += n
				continue
			}
			sum := s.windowGenSum(m, f, numFrames)
			st.inspected++
			if s.primed && s.cache[f].genSum == sum {
				st.cached++
				f++
				continue
			}
			// Grow a run of consecutive dirty frames and search it as one
			// window — a cold scan degenerates to one window per shard.
			run := f + 1
			sums := []uint64{sum}
			for run < hi {
				rs := s.windowGenSum(m, run, numFrames)
				st.inspected++
				if s.primed && s.cache[run].genSum == rs {
					break
				}
				sums = append(sums, rs)
				run++
			}
			s.scanRun(view, f, run, numFrames, sums)
			st.scanned += run - f
			f = run
		}
		return st, nil
	})
	if err == nil {
		for _, st := range res {
			s.stats.FramesScanned += st.scanned
			s.stats.FramesCached += st.cached
			s.gensInspected += st.inspected
		}
	}
}

// cleanBlock reports whether every frame of block b is provably clean:
// no block its frames' scan windows reach (b through the block holding
// its last frame + span) was written after lastMut. Every cached frame is
// valid as of lastMut and generations only grow, so a window's generation
// sum differs from its cached one exactly when some frame in the window
// has a generation above lastMut — which is what the block maxima rule
// out.
func (s *Scanner) cleanBlock(m *mem.Memory, b int) bool {
	last := ((b+1)*mem.BlockFrames - 1 + s.span) >> mem.BlockShift
	if last >= m.NumBlocks() {
		last = m.NumBlocks() - 1
	}
	for ; b <= last; b++ {
		if m.BlockGen(b) > s.lastMut {
			return false
		}
	}
	return true
}

// windowGenSum sums the write generations of the frames a scan window for
// frame f covers: f itself plus span following frames (clamped).
func (s *Scanner) windowGenSum(m *mem.Memory, f, numFrames int) uint64 {
	hi := f + s.span
	if hi >= numFrames {
		hi = numFrames - 1
	}
	var sum uint64
	for g := f; g <= hi; g++ {
		sum += m.Frame(mem.PageNum(g)).Gen()
	}
	return sum
}

// scanRun re-searches frames [lo, hi) in one pass. The window extends
// maxLen-1 bytes past the run so matches straddling the run's trailing
// boundary are found; matches are bucketed to the frame they start in,
// and the match bitmap is brought up to date for every frame of the run.
func (s *Scanner) scanRun(view []byte, lo, hi, numFrames int, sums []uint64) {
	base := mem.PageNum(lo).Base()
	runBytes := (hi - lo) * mem.PageSize
	end := int(base) + runBytes + s.eng.maxLen - 1
	if end > len(view) {
		end = len(view)
	}
	for f := lo; f < hi; f++ {
		s.cache[f].genSum = sums[f-lo]
		s.cache[f].matches = nil
		s.hasMatch[f>>6] &^= 1 << (f & 63)
	}
	s.eng.scan(view[base:end], runBytes, func(off, pat int) bool {
		f := lo + off/mem.PageSize
		s.cache[f].matches = append(s.cache[f].matches, frameMatch{
			off: int32(off % mem.PageSize),
			pat: int32(pat),
		})
		s.hasMatch[f>>6] |= 1 << (f & 63)
		return true
	})
}

// emit rebuilds the full match list from the per-frame cache in the
// scanner's canonical order — pattern-major, address-ascending, exactly
// the order the original one-pass-per-pattern search produced — and
// classifies every match against the frames' current metadata. Only the
// frames set in the match bitmap are visited, once per pattern, and only
// between its first and last non-zero words: a machine with no key copies
// costs one pass over the bitmap.
func (s *Scanner) emit(m *mem.Memory) []Match {
	lo, hi := 0, len(s.hasMatch)
	for lo < hi && s.hasMatch[lo] == 0 {
		lo++
	}
	for hi > lo && s.hasMatch[hi-1] == 0 {
		hi--
	}
	var out []Match
	for pi := range s.patterns {
		for w := lo; w < hi; w++ {
			for word := s.hasMatch[w]; word != 0; word &= word - 1 {
				f := w<<6 + bits.TrailingZeros64(word)
				for _, fm := range s.cache[f].matches {
					if int(fm.pat) != pi {
						continue
					}
					fr := m.Frame(mem.PageNum(f))
					out = append(out, Match{
						Addr:      mem.PageNum(f).Base() + mem.Addr(fm.off),
						Part:      s.patterns[pi].Part,
						Allocated: fr.State == mem.FrameAllocated,
						Owner:     fr.Owner,
						PIDs:      fr.Mappers(),
					})
				}
			}
		}
	}
	return out
}

// Summarize aggregates matches into counts.
func Summarize(matches []Match) Summary {
	sum := Summary{ByPart: make(map[Part]int)}
	for _, m := range matches {
		sum.Total++
		if m.Allocated {
			sum.Allocated++
		} else {
			sum.Unallocated++
		}
		sum.ByPart[m.Part]++
	}
	return sum
}

// CountInBuffer counts pattern occurrences inside an attacker-captured
// buffer (a USB stick full of mkdir leaks, or a tty memory dump). All
// patterns are counted in one pass over the buffer; a capture "found any"
// part of the key — the paper's attack success criterion — exactly when
// the Total is non-zero.
func CountInBuffer(buf []byte, patterns []Pattern) Summary {
	return CountInWrapped(buf, nil, patterns)
}

// CountInWrapped counts pattern occurrences in the concatenation a‖b
// without building it: a tty dump that wraps around the end of physical
// memory is the tail view followed by the head view. a and b are each
// searched in place; the matches that cross the seam start in the last
// maxLen-1 bytes of a and end in the first maxLen-1 bytes of b, so only a
// seam buffer of at most 2·(maxLen-1) bytes is copied, and of its matches
// only those that cross the seam are counted (the others lie wholly in a
// or b and were counted there).
func CountInWrapped(a, b []byte, patterns []Pattern) Summary {
	sum := Summary{ByPart: make(map[Part]int)}
	d := compile(patterns)
	count := func(_, pat int) bool {
		sum.Total++
		sum.ByPart[patterns[pat].Part]++
		return true
	}
	d.scan(a, len(a), count)
	d.scan(b, len(b), count)
	if d.maxLen < 2 || len(a) == 0 || len(b) == 0 {
		return sum
	}
	overlap := d.maxLen - 1
	tail := a[max(0, len(a)-overlap):]
	seam := make([]byte, 0, len(tail)+overlap)
	seam = append(append(seam, tail...), b[:min(len(b), overlap)]...)
	d.scan(seam, len(tail), func(off, pat int) bool {
		if off+len(patterns[pat].Bytes) > len(tail) {
			count(off, pat)
		}
		return true
	})
	return sum
}

// BufferMatch is one pattern occurrence inside a captured buffer.
type BufferMatch struct {
	Off  int
	Len  int
	Part Part
}

// FindAllInBuffer locates every pattern occurrence in the buffer in one
// pass, sorted by (Off, Part, Len) — the Part tie-break pins the order of
// distinct patterns matching at the same offset, which an unstable
// offset-only sort used to leave nondeterministic. Sweeps that evaluate
// multiple capture prefixes (e.g. "how many copies after D directories?"
// for several D) find all matches once and count by prefix instead of
// rescanning.
func FindAllInBuffer(buf []byte, patterns []Pattern) []BufferMatch {
	var out []BufferMatch
	compile(patterns).scan(buf, len(buf), func(off, pat int) bool {
		out = append(out, BufferMatch{Off: off, Len: len(patterns[pat].Bytes), Part: patterns[pat].Part})
		return true
	})
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Off != out[j].Off {
			return out[i].Off < out[j].Off
		}
		if out[i].Part != out[j].Part {
			return out[i].Part < out[j].Part
		}
		return out[i].Len < out[j].Len
	})
	return out
}
