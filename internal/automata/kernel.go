package automata

import (
	"encoding/binary"
	"math/bits"
	"sort"
)

// Kernel is the word-parallel implementation of the AP's lock-step cycle,
// and the only one: FastSimulator, lazy-DFA fills and demotion, the
// ahead-of-time subset construction, equivalence checking, witness search,
// tracing, and the board model all step through it. (LaneSimulator keeps
// its transposed loop but reads this accept table; the naive Simulator is
// the independent oracle and shares nothing with it.)
//
// A kernel holds the immutable step tables of one Topology — for every
// input symbol the bitset of STEs accepting it, the start-of-data and
// all-input start sets, for every element the sparse mask of STEs its
// activation enables, and the reporting-element bitset — which mirrors how
// the device evaluates all columns of the memory array against the decoded
// row in parallel. It is built once per topology, cached on it, and safe
// for concurrent use; callers own the configuration words they pass in.
type Kernel struct {
	nwords int

	accept     []uint64 // accept[sym*nwords+w]: STEs accepting sym
	startData  bitset   // StartOfData STEs
	startAll   bitset   // StartAllInput STEs
	reportBits bitset   // reporting elements
	codes      []int32  // report code per element (the topology's array)

	// specials is the topology itself when it has counters or gates —
	// FastSimulator evaluates them between the two halves of a cycle —
	// and nil for a pure-STE topology, which the kernel then does not
	// keep alive: its tables are everything a step needs.
	specials *Topology

	// outMask[id] is the sparse enable mask of element id: the nonzero
	// words of the STE set its activation enables. All entries are
	// subslices of one backing array.
	outMask [][]maskWord
}

// maskWord is one nonzero word of a sparse enable mask.
type maskWord struct {
	word int
	bits uint64
}

// Kernel returns the topology's step kernel, building its tables on first
// use. Construction is O(elements × alphabet); every later call, from any
// goroutine, returns the same value.
func (t *Topology) Kernel() *Kernel {
	t.kernelOnce.Do(func() { t.kernel = newKernel(t) })
	return t.kernel
}

func newKernel(t *Topology) *Kernel {
	ln := t.Len()
	nwords := (ln + 63) / 64
	k := &Kernel{
		nwords:     nwords,
		codes:      t.code,
		accept:     make([]uint64, 256*nwords),
		startData:  newBitset(ln),
		startAll:   newBitset(ln),
		reportBits: newBitset(ln),
		outMask:    make([][]maskWord, ln),
	}
	if !t.Pure() {
		k.specials = t
	}
	mask := newBitset(ln)
	masks := make([]maskWord, 0, t.EdgeCount()) // scratch: at most one word per out-edge
	for id := ElementID(0); id < ElementID(ln); id++ {
		if t.Reports(id) {
			k.reportBits.set(id)
		}
		mask.reset()
		for _, out := range t.Outs(id) {
			if to := ElementID(out.Node); out.Port == PortIn && t.Kind(to) == KindSTE {
				mask.set(to)
			}
		}
		first := len(masks)
		for wi, w := range mask {
			if w != 0 {
				masks = append(masks, maskWord{word: wi, bits: w})
			}
		}
		k.outMask[id] = masks[first:]
		if t.Kind(id) != KindSTE {
			continue
		}
		class := t.Class(id)
		wi, bit := int(id)>>6, uint64(1)<<(uint(id)&63)
		for sym := 0; sym < 256; sym++ {
			if class.Contains(byte(sym)) {
				k.accept[sym*nwords+wi] |= bit
			}
		}
		switch t.Start(id) {
		case StartOfData:
			k.startData.set(id)
		case StartAllInput:
			k.startAll.set(id)
		}
	}
	// Edges into one word share a mask word, so the scratch is mostly
	// slack: keep an exact-size copy.
	exact := append([]maskWord(nil), masks...)
	for id, m := range k.outMask {
		k.outMask[id] = exact[:len(m):len(m)]
		exact = exact[len(m):]
	}
	return k
}

// Words returns the length, in 64-bit words, of the configuration vectors
// the kernel steps (one bit per element).
func (k *Kernel) Words() int { return k.nwords }

// Step advances a pure-STE configuration by one symbol: enabled is the
// enable vector before the symbol and first says whether it is the
// stream's first (start-of-data STEs are eligible). It writes the cycle's
// activations to active and the successor enable vector to next — both
// Words() long, distinct from enabled — and reports whether any reporting
// element activated (ReportCodes lists them).
func (k *Kernel) Step(enabled []uint64, first bool, sym byte, active, next []uint64) (reports bool) {
	k.activate(enabled, first, sym, active)
	return k.propagate(active, next)
}

// activate is the first half of a cycle: every enabled or start STE tests
// the symbol. Counters and gates, which evaluate combinationally on these
// activations, are FastSimulator's to add before propagate.
func (k *Kernel) activate(enabled []uint64, first bool, sym byte, active []uint64) {
	n := len(active)
	accept, startAll := k.accept[int(sym)*n:][:n], k.startAll[:n]
	enabled = enabled[:n]
	for i := range active {
		w := enabled[i] | startAll[i]
		if first {
			w |= k.startData[i]
		}
		active[i] = w & accept[i]
	}
}

// propagate is the second half: every active element enables its
// successor STEs for the next cycle. The report test is one AND per word
// against the reporting mask, so a cycle without reports never looks at
// individual reporting elements.
func (k *Kernel) propagate(active, next []uint64) (reports bool) {
	clear(next)
	outMask, reportBits := k.outMask, k.reportBits[:len(active)]
	var rep uint64
	for wi, w := range active {
		rep |= w & reportBits[wi]
		for ; w != 0; w &= w - 1 {
			for _, mw := range outMask[wi<<6+bits.TrailingZeros64(w)] {
				next[mw.word] |= mw.bits
			}
		}
	}
	return rep != 0
}

// forEachReport calls f for every reporting element set in active, in
// increasing element order.
func (k *Kernel) forEachReport(active []uint64, f func(id ElementID, code int)) {
	for wi, w := range active {
		for rep := w & k.reportBits[wi]; rep != 0; rep &= rep - 1 {
			id := ElementID(wi<<6 + bits.TrailingZeros64(rep))
			f(id, int(k.codes[id]))
		}
	}
}

// ReportCodes appends to dst the report codes of the reporting elements
// set in active — sorted and distinct, the (offset, code) convention of
// the determinized tiers — and returns the extended slice.
func (k *Kernel) ReportCodes(dst []int, active []uint64) []int {
	base := len(dst)
	k.forEachReport(active, func(_ ElementID, code int) { dst = append(dst, code) })
	codes := dst[base:]
	if len(codes) < 2 {
		return dst
	}
	sort.Ints(codes)
	out := codes[:1]
	for _, c := range codes[1:] {
		if c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return dst[:base+len(out)]
}

// AppendConfigKey serializes a configuration (the first-symbol flag, then
// the enable words) into buf as an exact map key: equal keys mean equal
// configurations, so no search or cache keyed by it can conflate two. Keys
// are never empty.
func AppendConfigKey(buf []byte, enabled []uint64, first bool) []byte {
	if first {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	for _, w := range enabled {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}
