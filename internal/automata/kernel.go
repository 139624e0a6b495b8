package automata

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// Kernel is the word-parallel implementation of the AP's lock-step cycle,
// and the only one: FastSimulator, lazy-DFA fills and demotion,
// equivalence checking, witness search, tracing, and the board model all
// step through it. (The naive Simulator is the independent oracle and
// shares nothing with it.)
//
// A kernel holds the immutable step tables of one Topology — for every
// input symbol the bitset of STEs accepting it, the start-of-data and
// all-input start sets, for every element the sparse mask of STEs its
// activation enables, the reporting-element bitset, and the flattened
// counters and gates — which mirrors how the device evaluates all columns
// of the memory array against the decoded row in parallel. It is built
// once per topology, cached on it, and safe for concurrent use; callers
// own the configuration words they pass in.
//
// A configuration is everything the next cycle depends on: one enable bit
// per element (nwords words) followed by the counters' saturating values,
// bit-packed (cwords words, none for a pure-STE topology). Counters stop
// at their target, so the configuration space is finite and a
// configuration is an exact determinization state.
type Kernel struct {
	nwords int // enable words
	cwords int // packed counter words following them

	accept     []uint64 // accept[sym*nwords+w]: STEs accepting sym
	startData  bitset   // StartOfData STEs
	startAll   bitset   // StartAllInput STEs
	reportBits bitset   // reporting elements
	codes      []int32  // report code per element (the topology's array)

	// specials are the counters and gates in combinational order, evaluated
	// between the two halves of a cycle; nil for a pure-STE topology. The
	// kernel never keeps the topology itself alive.
	specials []special

	// outMask[id] is the sparse enable mask of element id: the nonzero
	// words of the STE set its activation enables. All entries are
	// subslices of one backing array.
	outMask [][]maskWord
}

// maskWord is one nonzero word of a sparse element set.
type maskWord struct {
	word int
	bits uint64
}

// special is one counter or gate flattened for evaluation: its input sets
// as sparse masks over the activation vector, so a cycle tests words
// rather than walking edges, and for a counter the field of the
// configuration's counter words that holds its value.
type special struct {
	id        ElementID
	gate      bool
	op        GateOp
	in, reset []maskWord // gate inputs or count-port sources; reset-port sources
	target    uint64
	word      int // counter value: counters[word] >> shift & mask
	shift     uint
	mask      uint64
}

func appendMask(dst []maskWord, set bitset) []maskWord {
	for wi, w := range set {
		if w != 0 {
			dst = append(dst, maskWord{word: wi, bits: w})
		}
	}
	return dst
}

func anyOf(active []uint64, set []maskWord) bool {
	for _, mw := range set {
		if active[mw.word]&mw.bits != 0 {
			return true
		}
	}
	return false
}

func allOf(active []uint64, set []maskWord) bool {
	for _, mw := range set {
		if active[mw.word]&mw.bits != mw.bits {
			return false
		}
	}
	return true
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
	mask := newBitset(ln)
	sources := func(id ElementID, port Port) []maskWord {
		mask.reset()
		for _, in := range t.Ins(id) {
			if in.Port == port {
				mask.set(ElementID(in.Node))
			}
		}
		return appendMask(nil, mask)
	}
	used := uint(64) // bits taken in the last counter word; a field never straddles two
	for _, id := range t.Specials() {
		sp := special{id: id, gate: t.Kind(id) == KindGate, op: t.Op(id)}
		if sp.gate {
			sp.in = sources(id, PortIn)
		} else {
			sp.in, sp.reset, sp.target = sources(id, PortCount), sources(id, PortReset), uint64(t.Target(id))
			width := uint(bits.Len64(sp.target))
			if used+width > 64 {
				k.cwords, used = k.cwords+1, 0
			}
			sp.word, sp.shift, sp.mask = k.cwords-1, used, 1<<width-1
			used += width
		}
		k.specials = append(k.specials, sp)
	}
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
		masks = appendMask(masks, mask)
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
// the kernel steps: one bit per element, then the packed counter values.
func (k *Kernel) Words() int { return k.nwords + k.cwords }

// Step advances a configuration by one symbol: config is the configuration
// before the symbol and first says whether it is the stream's first
// (start-of-data STEs are eligible). It writes the cycle's activations to
// active and the successor configuration to next — both Words() long,
// distinct from config — and reports whether any reporting element
// activated (ReportCodes lists them).
func (k *Kernel) Step(config []uint64, first bool, sym byte, active, next []uint64) (reports bool) {
	n := k.nwords
	active = active[:n]
	k.activate(config, first, sym, active)
	if k.specials != nil {
		copy(next[n:], config[n:])
		k.evalSpecials(active, next[n:])
	}
	return k.propagate(active, next[:n])
}

// activate is the first half of a cycle: every enabled or start STE tests
// the symbol.
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

// evalSpecials is the middle of a cycle: counters and gates evaluate
// combinationally, in order, on the activations so far — each adding its
// own — and counters advance in place. Reset dominates count; a counter
// saturates at its target and is active from then until reset.
func (k *Kernel) evalSpecials(active, counters []uint64) {
	for i := range k.specials {
		sp := &k.specials[i]
		var on bool
		switch {
		case !sp.gate:
			v := counters[sp.word] >> sp.shift & sp.mask
			if anyOf(active, sp.reset) {
				v = 0
			} else if v < sp.target && anyOf(active, sp.in) {
				v++
			}
			counters[sp.word] = counters[sp.word]&^(sp.mask<<sp.shift) | v<<sp.shift
			on = v >= sp.target
		case sp.op == GateAnd:
			on = allOf(active, sp.in)
		case sp.op == GateOr:
			on = anyOf(active, sp.in)
		case sp.op == GateNand:
			on = !allOf(active, sp.in)
		default: // GateNot, GateNor
			on = !anyOf(active, sp.in)
		}
		if on {
			active[sp.id>>6] |= 1 << (uint(sp.id) & 63)
		}
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

// forEachReport calls f with the code of every reporting element set in
// active, in increasing element order.
func (k *Kernel) forEachReport(active []uint64, f func(code int)) {
	for wi, w := range active[:k.nwords] {
		for rep := w & k.reportBits[wi]; rep != 0; rep &= rep - 1 {
			f(int(k.codes[wi<<6+bits.TrailingZeros64(rep)]))
		}
	}
}

// ReportCodes appends to dst the report codes of the reporting elements
// set in active — sorted and distinct, the (offset, code) convention of
// the determinized tiers — and returns the extended slice.
func (k *Kernel) ReportCodes(dst []int, active []uint64) []int {
	base := len(dst)
	k.forEachReport(active, func(code int) { dst = append(dst, code) })
	slices.Sort(dst[base:])
	return dst[:base+len(slices.Compact(dst[base:]))]
}

// AppendConfigKey serializes a configuration (the first-symbol flag, then
// the configuration words, counters included) into buf as an exact map
// key: equal keys mean equal configurations, so no search or cache keyed
// by it can conflate two. Keys are never empty.
func AppendConfigKey(buf []byte, config []uint64, first bool) []byte {
	if first {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	for _, w := range config {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}
