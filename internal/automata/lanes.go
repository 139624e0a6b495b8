package automata

import (
	"context"
	"fmt"
	"math/bits"
)

// 64-streams-per-word bitset-parallel execution for pure-STE topologies.
//
// The classic bitset NFA walk packs *states* into machine words and
// advances one stream per step. The lane simulator transposes that layout:
// each element owns one 64-bit word whose bit l is "element is enabled in
// stream l", so a single pass over the elements advances 64 independent
// streams at once. Small designs — the serving fleet's shape, where one
// compiled rule runs against thousands of short records — spend their time
// on per-stream overhead in the classic layout; here that overhead is
// amortized 64 ways (iNFAnt and Hyperscan apply the same idea on GPUs and
// SIMD units).
//
// Per input position the simulator must know, for every element e and lane
// l, whether lane l's current byte is in e's class. The per-symbol accept
// bitsets give that information element-packed per lane; a 64×64 bit-matrix
// transpose (Hacker's Delight §7-3) flips each 64-element block from
// lane-major to element-major in 6 log-steps, after which activation and
// propagation are plain word ops on lane words.
//
// The hot loop is split two ways to keep the per-position constant small:
// positions below the shortest stream length run a branch-free interior
// (every lane alive, no per-lane bounds tests), and designs that fit one
// machine word (≤64 elements — the tier's target shape) skip the
// column-staging copy and read the transposed block directly.

// MaxLanes is the number of streams one LaneSimulator advances per pass —
// the width of a machine word.
const MaxLanes = 64

// ErrNotPure is returned when a lane simulator is requested for a topology
// containing counters or gates: their sequential/combinational state does
// not transpose into independent lane words, so lane execution is limited
// to pure-STE designs (callers fall back to per-stream execution).
var ErrNotPure = fmt.Errorf("automata: lane execution requires a pure-STE topology (no counters or gates)")

// LaneSimulator executes up to MaxLanes independent input streams in
// lock-step over one pure-STE topology. The immutable tables are shared
// across Clones; the mutable lane state is element-major. Clone is O(1)
// allocations, like FastSimulator's.
type LaneSimulator struct {
	t  *Topology
	ln int // element count

	// accept is the kernel's flat acceptance table: for symbol sym and
	// element word wi, accept[sym*nwords+wi] bit e = class(e*) contains
	// sym (e* = wi*64 + e). Contiguous so the interior loop is one index.
	accept    []uint64
	nwords    int
	pack2     bool // ≤32 elements: two positions share each transposed block
	startData bitset
	// always[e] is ^0 for StartAllInput elements (enabled on every cycle
	// regardless of history) and 0 otherwise, so activation needs no
	// per-element start-kind branch.
	always     []uint64
	reportBits bitset
	// Single-word fast-path masks (nwords == 1): bit e set for
	// StartAllInput / reporting elements respectively.
	alwaysMask uint64
	reportMask uint64

	// succ is the CSR flat successor list over PortIn edges: for element e,
	// succ[succOff[e]:succOff[e+1]] are the elements e enables.
	succ    []int32
	succOff []int32

	// Mutable lane-word state, indexed by element and carved from one
	// backing slice.
	state   []uint64
	enabled []uint64
	next    []uint64
	// live tracks, on the single-word fast path, which elements may have
	// a nonzero enable word — the sparse working set the step loop visits
	// (random text leaves most of a chain's interior dead). Elements not
	// in live hold zero in both buffers, maintained by clear-on-consume.
	live uint64
	// stage holds a block of input re-laid position-major
	// (stage[p*64+l] = lane l's byte at block position p), so the packed
	// interior reads bytes with no per-lane slice-header or bounds-check
	// overhead. Embedded array: Clone stays O(1) allocations.
	stage [laneStage * 64]byte
}

// laneStage is the number of positions the packed fast path stages per
// block — 8 KiB of re-laid input, comfortably L1-resident.
const laneStage = 128

// NewLaneSimulator builds a lane simulator for a pure-STE topology, or
// returns ErrNotPure.
func (t *Topology) NewLaneSimulator() (*LaneSimulator, error) {
	if !t.Pure() {
		return nil, ErrNotPure
	}
	// The accept table and start/report sets are the kernel's; only the
	// element-major successor lists and lane masks are built here.
	k := t.Kernel()
	ln := t.Len()
	s := &LaneSimulator{
		t:          t,
		ln:         ln,
		nwords:     k.nwords,
		pack2:      ln <= 32,
		accept:     k.accept,
		startData:  k.startData,
		reportBits: k.reportBits,
		always:     make([]uint64, ln),
		succOff:    make([]int32, ln+1),
		succ:       make([]int32, 0, t.EdgeCount()),
	}
	if s.nwords == 1 {
		s.alwaysMask, s.reportMask = k.startAll[0], k.reportBits[0]
	}
	for id := ElementID(0); id < ElementID(ln); id++ {
		for _, out := range t.Outs(id) {
			if out.Port == PortIn {
				s.succ = append(s.succ, out.Node)
			}
		}
		s.succOff[id+1] = int32(len(s.succ))
		if t.Start(id) == StartAllInput {
			s.always[id] = ^uint64(0)
		}
	}
	s.allocState()
	return s, nil
}

func (s *LaneSimulator) allocState() {
	ln := s.ln
	s.state = make([]uint64, 2*ln)
	s.enabled = s.state[:ln:ln]
	s.next = s.state[ln:]
}

// Topology returns the frozen topology the simulator executes.
func (s *LaneSimulator) Topology() *Topology { return s.t }

// Clone returns an independent lane simulator sharing the immutable
// tables. Like FastSimulator.Clone, it is a constant number of
// allocations.
func (s *LaneSimulator) Clone() *LaneSimulator {
	c := &LaneSimulator{
		t:          s.t,
		ln:         s.ln,
		nwords:     s.nwords,
		pack2:      s.pack2,
		accept:     s.accept,
		startData:  s.startData,
		always:     s.always,
		reportBits: s.reportBits,
		alwaysMask: s.alwaysMask,
		reportMask: s.reportMask,
		succ:       s.succ,
		succOff:    s.succOff,
	}
	c.allocState()
	return c
}

// Run executes up to MaxLanes input streams in lock-step and returns one
// report slice per stream, each identical to what Simulator/FastSimulator
// would produce for that stream alone. Streams may have different
// lengths; a lane goes dead when its stream ends. The context is checked
// every CancelCheckInterval steps; on cancellation the reports collected
// so far are returned with ctx.Err().
func (s *LaneSimulator) Run(ctx context.Context, inputs [][]byte) ([][]Report, error) {
	if len(inputs) > MaxLanes {
		return nil, fmt.Errorf("automata: %d streams exceed the %d-lane word width", len(inputs), MaxLanes)
	}
	out := make([][]Report, len(inputs))
	for i := range s.state {
		s.state[i] = 0
	}
	maxLen, minLen := 0, 0
	var alive0 uint64
	for l, in := range inputs {
		if len(in) > maxLen {
			maxLen = len(in)
		}
		if l == 0 || len(in) < minLen {
			minLen = len(in)
		}
		if len(in) > 0 {
			alive0 |= 1 << uint(l)
		}
	}
	if len(inputs) == 0 || maxLen == 0 {
		return out, nil
	}

	// StartOfData elements are enabled exactly at each live lane's
	// position 0 — which is the global position 0, because all lanes
	// begin together. Seeding the enable vector here removes the
	// first-position branch from the loop; the seed is consumed (and the
	// vector replaced) by the first step's swap.
	s.live = 0
	s.startData.forEach(func(id ElementID) {
		s.enabled[id] = alive0
		if s.nwords == 1 {
			s.live |= 1 << uint(id)
		}
	})

	full := ^uint64(0)
	if len(inputs) < 64 {
		full = 1<<uint(len(inputs)) - 1
	}

	// rows is the transpose staging buffer: rows[i] is lane (63-i)'s
	// element-packed accept word for the current 64-element block. The
	// reversal matches the bit-order convention of transpose64, which
	// treats bit 63 as matrix column 0. Lanes beyond len(inputs) stay
	// zero; dead-lane garbage in the tail is screened by the alive mask.
	var rows [64]uint64

	pos := 0
	if s.nwords == 1 {
		// Small-design fast path: the whole element set fits one word, so
		// the transposed block is consumed in place — no column staging.
		accept := s.accept
		if s.pack2 {
			// ≤32 elements: two positions share each transposed block —
			// position pos in columns 0–31, pos+1 in columns 32–63.
			// Full blocks first: stage the input position-major so the
			// per-position loop touches no stream slices at all.
			for ; pos+laneStage <= minLen; pos += laneStage {
				if ctx != nil {
					if err := ctx.Err(); err != nil {
						return out, err
					}
				}
				for l, in := range inputs {
					seg := in[pos : pos+laneStage]
					for p, b := range seg {
						s.stage[p*64+l] = b
					}
				}
				for p := 0; p < laneStage; p += 2 {
					r1 := s.stage[p*64 : p*64+64 : p*64+64]
					r2 := s.stage[(p+1)*64 : (p+1)*64+64 : (p+1)*64+64]
					for l := 0; l < 64; l++ {
						rows[63-l] = accept[r1[l]] | accept[r2[l]]<<32
					}
					transpose64(&rows)
					s.stepWord(&rows, 63, full, out, pos+p)
					s.stepWord(&rows, 31, full, out, pos+p+1)
				}
			}
			for ; pos+1 < minLen; pos += 2 {
				if pos%CancelCheckInterval == 0 && ctx != nil {
					if err := ctx.Err(); err != nil {
						return out, err
					}
				}
				for l, in := range inputs {
					rows[63-l] = accept[in[pos]] | accept[in[pos+1]]<<32
				}
				transpose64(&rows)
				s.stepWord(&rows, 63, full, out, pos)
				s.stepWord(&rows, 31, full, out, pos+1)
			}
		}
		for ; pos < minLen; pos++ { // branch-free interior: every lane alive
			if pos%CancelCheckInterval == 0 && ctx != nil {
				if err := ctx.Err(); err != nil {
					return out, err
				}
			}
			for l, in := range inputs {
				rows[63-l] = accept[in[pos]]
			}
			transpose64(&rows)
			s.stepWord(&rows, 63, full, out, pos)
		}
		for ; pos < maxLen; pos++ { // tail: lanes die as their streams end
			if pos%CancelCheckInterval == 0 && ctx != nil {
				if err := ctx.Err(); err != nil {
					return out, err
				}
			}
			var alive uint64
			for l, in := range inputs {
				if pos < len(in) {
					alive |= 1 << uint(l)
					rows[63-l] = accept[in[pos]]
				}
			}
			transpose64(&rows)
			s.stepWord(&rows, 63, alive, out, pos)
		}
		return out, nil
	}

	// General path: >64 elements, one transpose per 64-element block,
	// consumed in place: activation, propagation and reporting of the
	// block's elements read the transposed rows directly.
	nwords, ln := s.nwords, s.ln
	succ, succOff, always, reportBits := s.succ, s.succOff, s.always, s.reportBits
	var bytesAt [64]byte
	for ; pos < maxLen; pos++ {
		if pos%CancelCheckInterval == 0 && ctx != nil {
			if err := ctx.Err(); err != nil {
				return out, err
			}
		}
		alive := full
		if pos >= minLen {
			alive = 0
			for l, in := range inputs {
				if pos < len(in) {
					alive |= 1 << uint(l)
					bytesAt[l] = in[pos]
				} else {
					bytesAt[l] = 0 // masked out by alive below
				}
			}
		} else {
			for l, in := range inputs {
				bytesAt[l] = in[pos]
			}
		}

		enabled, next := s.enabled, s.next
		clear(next)
		for wi := 0; wi < nwords; wi++ {
			for l := 0; l < len(inputs); l++ {
				rows[63-l] = s.accept[int(bytesAt[l])*nwords+wi]
			}
			transpose64(&rows)
			base := wi * 64
			top := min(base+64, ln)
			en, al, rep := enabled[base:top], always[base:top], reportBits[wi]
			for k := range en {
				a := (en[k] | al[k]) & rows[63-k] & alive
				if a == 0 {
					continue
				}
				e := base + k
				for _, to := range succ[succOff[e]:succOff[e+1]] {
					next[to] |= a
				}
				if rep&(1<<uint(k)) != 0 {
					id := ElementID(e)
					code := s.t.ReportCode(id)
					for ; a != 0; a &= a - 1 {
						l := bits.TrailingZeros64(a)
						out[l] = append(out[l], Report{Offset: pos, Element: id, Code: code})
					}
				}
			}
		}
		s.enabled, s.next = next, enabled
	}
	return out, nil
}

// stepWord is one position of the single-word fast path: activation,
// propagation, and reporting fused into one sparse pass over the live
// element set, reading the transposed acceptance block in place.
// Element e's lane word is rows[base-e]: base 63 for an unpacked block
// (or the low half of a packed one), base 31 for the high half holding
// position pos+1.
//
// Invariant: an element outside s.live (and not always-on) holds zero
// in both enable buffers. The loop consumes each visited entry back to
// zero and records every propagation target in the next live set, so
// neither buffer ever needs a full clear.
func (s *LaneSimulator) stepWord(rows *[64]uint64, base int, alive uint64, out [][]Report, pos int) {
	enabled, next := s.enabled, s.next
	succ, succOff, always := s.succ, s.succOff, s.always
	w := s.live | s.alwaysMask
	var nextLive uint64
	for w != 0 {
		e := bits.TrailingZeros64(w)
		w &= w - 1
		a := (enabled[e] | always[e]) & rows[base-e] & alive
		enabled[e] = 0
		if a == 0 {
			continue
		}
		if s.reportMask&(1<<uint(e)) != 0 {
			id := ElementID(e)
			code := s.t.ReportCode(id)
			r := a
			for r != 0 {
				l := bits.TrailingZeros64(r)
				out[l] = append(out[l], Report{Offset: pos, Element: id, Code: code})
				r &= r - 1
			}
		}
		for _, to := range succ[succOff[e]:succOff[e+1]] {
			next[to] |= a
			nextLive |= 1 << uint(to)
		}
	}
	s.live = nextLive
	s.enabled, s.next = next, enabled
}

// transpose64 transposes a 64×64 bit matrix in place (Hacker's Delight
// §7-3, recursive block swap, manually unrolled so every shift distance
// is a constant). The matrix convention is row i = a[i] with bit 63 as
// column 0; Run's staging buffer loads and reads rows reversed to get
// the natural "bit l of output k = bit k of input l" mapping.
func transpose64(a *[64]uint64) {
	const (
		m32 = 0x00000000FFFFFFFF
		m16 = 0x0000FFFF0000FFFF
		m8  = 0x00FF00FF00FF00FF
		m4  = 0x0F0F0F0F0F0F0F0F
		m2  = 0x3333333333333333
		m1  = 0x5555555555555555
	)
	for k := 0; k < 32; k++ {
		t := (a[k] ^ (a[k+32] >> 32)) & m32
		a[k] ^= t
		a[k+32] ^= t << 32
	}
	for b := 0; b < 64; b += 32 {
		for k := b; k < b+16; k++ {
			t := (a[k] ^ (a[k+16] >> 16)) & m16
			a[k] ^= t
			a[k+16] ^= t << 16
		}
	}
	for b := 0; b < 64; b += 16 {
		for k := b; k < b+8; k++ {
			t := (a[k] ^ (a[k+8] >> 8)) & m8
			a[k] ^= t
			a[k+8] ^= t << 8
		}
	}
	for b := 0; b < 64; b += 8 {
		for k := b; k < b+4; k++ {
			t := (a[k] ^ (a[k+4] >> 4)) & m4
			a[k] ^= t
			a[k+4] ^= t << 4
		}
	}
	for b := 0; b < 64; b += 4 {
		for k := b; k < b+2; k++ {
			t := (a[k] ^ (a[k+2] >> 2)) & m2
			a[k] ^= t
			a[k+2] ^= t << 2
		}
	}
	for k := 0; k < 64; k += 2 {
		t := (a[k] ^ (a[k+1] >> 1)) & m1
		a[k] ^= t
		a[k+1] ^= t << 1
	}
}
