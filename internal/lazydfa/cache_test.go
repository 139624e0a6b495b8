package lazydfa

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/automata"
)

// checkCache verifies the state cache's intern index: every live slot's
// recorded hash is its configuration's, the slot is what a probe for its
// configuration finds (so no earlier slot holds the same configuration),
// the index holds exactly len(meta) entries (so none twice), and the rest
// offset names a slot holding the rest configuration. A cache released by
// demotion has nothing to check.
func checkCache(c *stateCache) error {
	if c.index == nil {
		return nil
	}
	entries := 0
	for _, e := range c.index {
		if e != 0 {
			entries++
		}
	}
	if entries != len(c.meta) {
		return fmt.Errorf("index holds %d entries for %d slots", entries, len(c.meta))
	}
	for id := range c.meta {
		st, config := &c.meta[id], c.config(int32(id))
		if h := hashConfig(config, st.first); st.hash != h {
			return fmt.Errorf("slot %d records hash %#x, its configuration hashes to %#x", id, st.hash, h)
		}
		if e := c.index[c.find(st.hash, config, st.first)]; e != int32(id)+1 {
			return fmt.Errorf("a probe for slot %d's configuration finds entry %d", id, e)
		}
	}
	if c.restOff >= 0 && (c.meta[c.restOff/c.ngroups].first || !slices.Equal(c.config(c.restOff/c.ngroups), c.rest)) {
		return fmt.Errorf("rest offset %d names a slot not holding the rest configuration", c.restOff)
	}
	return nil
}

// checkMatcher runs checkCache on every tier.
func checkMatcher(m *Matcher) error {
	for i, t := range m.tiers {
		if err := checkCache(t.cache); err != nil {
			return fmt.Errorf("tier %d: %w", i, err)
		}
	}
	return nil
}

// walkChecked walks input through each tier's slow path one byte at a
// time, the walker's state pinned as stepOne pins it on a miss, and checks
// the cache after the start state's intern and after every step: a step
// interns at most one state, which releases at most one. It returns the
// reports, merged across tiers.
func walkChecked(m *Matcher, input []byte) ([]automata.Report, error) {
	var out []automata.Report
	for i, t := range m.tiers {
		cur := t.startState()
		if err := checkCache(t.cache); err != nil {
			return nil, fmt.Errorf("tier %d, start: %w", i, err)
		}
		for off, sym := range input {
			t.cache.pins = [Lanes]int32{cur + 1}
			cur, out, _ = t.slowStep(cur, sym, out, off)
			if err := checkCache(t.cache); err != nil {
				return nil, fmt.Errorf("tier %d, byte %d: %w", i, off, err)
			}
		}
	}
	return automata.Canonical(out), nil
}

// TestStateCacheIndexInvariant hammers the intern index on random
// networks (both tiers) with caches that evict on almost every intern:
// fixed caps of 2–9 states, and an adaptive budget that starts at 2 and
// doubles to its 16-state floor under a 1-byte cap, rebuilding the index
// at each doubling. The cache is checked after every step of a byte-wise
// walk and after every run of the real walks (single, lanes, segments),
// and every report set must equal the reference simulator's. Clones then
// run the same traffic concurrently, for the race detector.
func TestStateCacheIndexInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ctx := context.Background()
	trials, long := 25, 16<<10
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		n := randomNetwork(rng)
		sim, err := automata.NewSimulator(n)
		if err != nil {
			t.Fatal(err)
		}
		group := [][]byte{randomInput(rng, long), randomInput(rng, 300), randomInput(rng, 40), randomInput(rng, 900), randomInput(rng, 120)}
		wants := make([][]automata.Report, len(group))
		for i, in := range group {
			wants[i] = automata.Canonical(sim.Run(in))
		}
		opts := []*Options{{MaxCacheBytes: 1, InitialCachedStates: 2}}
		for c := 2; c <= 9; c++ {
			opts = append(opts, &Options{MaxCachedStates: c})
		}
		for _, o := range opts {
			m, err := New(n, o)
			if err != nil {
				t.Fatal(err)
			}
			fail := func(what string, input []byte, err error) {
				t.Helper()
				t.Fatalf("trial %d %+v, %s over %d bytes: %v", trial, *o, what, len(input), err)
			}
			for k := 0; k < 3; k++ {
				input := randomInput(rng, rng.Intn(200))
				want := automata.Canonical(sim.Run(input))
				got, err := walkChecked(m, input)
				if err != nil {
					fail("byte-wise walk", input, err)
				}
				if !reflect.DeepEqual(got, want) {
					fail("byte-wise walk", input, fmt.Errorf("reports %v, want %v", got, want))
				}
			}
			// The long stream alone walks as segments, the rest as lanes.
			for _, part := range [][2]int{{0, 1}, {1, len(group)}} {
				lo, inputs := part[0], group[part[0]:part[1]]
				outs, err := m.RunGroup(ctx, inputs)
				if err == nil {
					err = checkMatcher(m)
				}
				if err != nil {
					fail(fmt.Sprintf("group of %d", len(inputs)), inputs[0], err)
				}
				for i, in := range inputs {
					want := wants[lo+i]
					if !reflect.DeepEqual(outs[i], want) && len(outs[i])+len(want) > 0 {
						fail(fmt.Sprintf("stream %d of a group of %d", i, len(inputs)), in, fmt.Errorf("%d reports, want %d", len(outs[i]), len(want)))
					}
				}
			}
			var wg sync.WaitGroup
			errs := make([]error, 2)
			for g := range errs {
				wg.Add(1)
				go func(c *Matcher) {
					defer wg.Done()
					if _, errs[g] = c.RunGroup(ctx, group[1:]); errs[g] == nil {
						errs[g] = checkMatcher(c)
					}
				}(m.Clone())
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					fail("concurrent clone", group[0], err)
				}
			}
		}
	}
}
