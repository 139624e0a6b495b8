package automata

import "math/bits"

// bitset is a fixed-capacity bit vector keyed by ElementID.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i ElementID)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) has(i ElementID) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b bitset) reset() {
	for i := range b {
		b[i] = 0
	}
}

// forEach calls f for every set bit in increasing order.
func (b bitset) forEach(f func(ElementID)) {
	for wi, w := range b {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			f(ElementID(wi*64 + tz))
			w &= w - 1
		}
	}
}
