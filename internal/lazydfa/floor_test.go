package lazydfa_test

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/automata"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/lazydfa"
)

// Tier floors: what the lazy DFA promises against the nfa-bitset walk it
// demotes to, stated as same-process ratios so a slow stretch of the host
// slows both sides alike.
const (
	// lazyFloor: on every paper design a warm lazy DFA keeps up with the
	// bitset walk. Demotion caps the loss when a cache is useless; a healthy
	// tier runs 3× (ARM, Brill) to 10× (Gappy, MOTOMATA) above it.
	lazyFloor = 0.65
	// counterFloor: MOTOMATA is all counters, and its DFA over whole
	// configurations replaces a counter evaluation per byte with one table
	// load, so it must beat the bitset walk outright.
	counterFloor = 3.0
	// laneFloor: on the scan designs whose walk waits on its table loads
	// (arm-32's rows miss the cache, motomata-4's counter tier is large),
	// walking Lanes warm streams interleaved beats walking them one after
	// another, each on one cursor. Typically 2×. One stream cut into Lanes
	// speculative segments is held to the same floor against its one-cursor
	// walk; typically 2.1–2.5×.
	laneFloor = 1.5
	// Each verdict times the two sides in interleaved pairs: at least
	// floorPairs of them, spread over at least floorSpan of wall time.
	floorPairs = 9
	floorSpan  = 500 * time.Millisecond
	// segmentSpan is the segment row's span. Its segments' fastest run
	// stays slow for whole 0.5 s stretches on motomata-4 (0.65 ms against
	// 0.43 ms quiet, the one-cursor side near 1 ms throughout), so a
	// 0.5 s verdict read 1.42–2.16× across 40 windows; over 1.5 s both
	// sides reach a quiet moment.
	segmentSpan = 3 * floorSpan
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// paperTiers is one design's tiers over a shared input: a warm lazy-DFA
// matcher and the nfa-bitset simulator.
type paperTiers struct {
	name   string
	input  []byte
	lazy   *lazydfa.Matcher
	bitset *automata.FastSimulator
}

// tierDesign is a paper benchmark application at an instance count.
type tierDesign struct {
	name string
	app  *bench.Benchmark
	n    int
}

// paperDesigns are the five paper designs at their Table 4/5 sizes.
func paperDesigns() []tierDesign {
	var out []tierDesign
	for _, b := range bench.All() {
		out = append(out, tierDesign{b.Name, b, b.DefaultInstances})
	}
	return out
}

// scanDesigns are the repository benchmark's scan-pure and scan-counter
// designs at its sizes. ARM-32 (≈12.8k states × 122 groups, where the paper
// size has 26 states) is the memory-bound walk scan-pure depends on.
func scanDesigns() []tierDesign {
	return []tierDesign{{"exact-32", bench.Exact(), 32}, {"arm-32", bench.ARM(), 32}, {"motomata-4", bench.Motomata(), 4}}
}

// compilePaperTiers compiles each design and warms its lazy matcher with
// two passes over the input: the first discovers the working set while the
// adaptive budget grows, the second refills what that growth evicted, so a
// timed pass is the recurring-traffic walk.
func compilePaperTiers(tb testing.TB, designs []tierDesign, streamBytes int) []paperTiers {
	tb.Helper()
	var out []paperTiers
	for _, d := range designs {
		src, args := d.app.RAPID(d.n)
		prog, err := core.Load(src)
		if err != nil {
			tb.Fatalf("%s: %v", d.name, err)
		}
		res, err := prog.Compile(args, nil)
		if err != nil {
			tb.Fatalf("%s: %v", d.name, err)
		}
		lazy, err := lazydfa.New(res.Network, nil)
		if err != nil {
			tb.Fatalf("%s: %v", d.name, err)
		}
		bitset, err := automata.NewFastSimulator(res.Network)
		if err != nil {
			tb.Fatalf("%s: %v", d.name, err)
		}
		input := d.app.Input(rand.New(rand.NewSource(1)), streamBytes)
		lazy.Run(input)
		lazy.Run(input)
		out = append(out, paperTiers{name: d.name, input: input, lazy: lazy, bitset: bitset})
	}
	return out
}

// tier is one timed side: a pass of one tier over the design's input.
type tier struct {
	name string
	run  func()
}

// sides are the passes the floors compare, all over the same bytes.
type sides struct {
	lazy, bitset tier // the input as one stream: the lazy DFA (segment walk) and the bitset walk
	// The input through RunGroup as one stream: the segment walk, and the
	// one-cursor walk it replaces.
	segments, unsplit tier
	// The input cut into lazydfa.Lanes streams, walked one after another on
	// one cursor each, and interleaved. The cut keeps the working set of the
	// one-stream walk.
	sequential, lanes tier
}

func (p paperTiers) tiers() sides {
	ctx := context.Background()
	one := [][]byte{p.input}
	streams := make([][]byte, lazydfa.Lanes)
	for i := range streams {
		streams[i] = p.input[i*len(p.input)/len(streams) : (i+1)*len(p.input)/len(streams)]
	}
	return sides{
		lazy:     tier{"lazy-dfa", func() { p.lazy.Run(p.input) }},
		bitset:   tier{"nfa-bitset", func() { p.bitset.Run(p.input) }},
		segments: tier{"lazy-dfa-segments", func() { p.lazy.RunGroup(ctx, one) }},
		unsplit:  tier{"lazy-dfa-unsplit", func() { p.lazy.RunUnsplit(ctx, one) }},
		sequential: tier{"lazy-dfa-seq", func() {
			for i := range streams {
				p.lazy.RunUnsplit(ctx, streams[i:i+1])
			}
		}},
		lanes: tier{"lazy-dfa-x4", func() { p.lazy.RunGroup(ctx, streams) }},
	}
}

// time runs the side once and returns the CPU time its thread spent. The
// caller holds its OS thread, so the clock counts this walk alone.
func (t tier) time() time.Duration {
	start := threadCPU()
	t.run()
	return threadCPU() - start
}

// speedup is slow's time over fast's, each side's time the fastest of its
// runs across interleaved pairs; odd pairs run slow first. Both sides run
// once untimed first: the lane streams start in states the one-stream
// warm-up never reached, and their fills must not land in a timed pair.
// Each run is timed in CPU time on a locked OS thread, so the milliseconds
// for which the other test binaries of a go test ./... deschedule this one
// on a small host are not charged to whichever side they hit. What is left
// is interference that slows a running thread: on a shared 2-vCPU VM the
// lane walk's advantage sits near 2.1× for a while, then near 1.5× for
// stretches of half a second or more, alone or beside other work (a median
// of pairs over 0.5 s still read 1.49× on motomata-4). So each side counts
// its least disturbed run, and the pairs span at least span so both sides
// see the same quiet moments.
func speedup(fast, slow tier, span time.Duration) float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	fast.run()
	slow.run()
	runtime.GC()
	bestFast, bestSlow := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	start := time.Now()
	for i := 0; i < floorPairs || time.Since(start) < span; i++ {
		if i%2 == 0 {
			bestFast, bestSlow = min(bestFast, fast.time()), min(bestSlow, slow.time())
		} else {
			bestSlow, bestFast = min(bestSlow, slow.time()), min(bestFast, fast.time())
		}
	}
	return float64(bestSlow) / float64(bestFast)
}

// TestTierFloors holds the lazy DFA to its floors on all five paper
// designs: warm lazy-dfa ≥ lazyFloor × nfa-bitset, and ≥ counterFloor × on
// MOTOMATA. A failure names the design, the ratio and the floor; a
// demoted or thrashing tier is the usual cause (fixed tiny caches break
// the Brill and Gappy floors, a tiny byte cap demotes MOTOMATA's counter
// tier). On arm-32 and motomata-4 it holds the interleaved walk of
// lazydfa.Lanes warm 64 KiB streams to ≥ laneFloor × the same streams
// walked one after another, and one warm 256 KiB stream's segment walk to
// ≥ laneFloor × its one-cursor walk. It takes near 6 s, floorSpan per
// design and row (segmentSpan for the segment row), and a little more
// under -race, where the tier ratios
// only widen; the lane and segment rows skip there, since instrumented
// loads no longer wait on memory (0.7–0.9× measured).
func TestTierFloors(t *testing.T) {
	for _, p := range compilePaperTiers(t, paperDesigns(), 64<<10) {
		floor := lazyFloor
		if p.name == "MOTOMATA" {
			floor = counterFloor
		}
		s := p.tiers()
		ratio := speedup(s.lazy, s.bitset, floorSpan)
		if ratio < floor {
			t.Errorf("%s: warm lazy-dfa is %.2f× nfa-bitset (fastest runs over %v), below its %.2f× floor (states=%d demoted=%v)",
				p.name, ratio, floorSpan, floor, p.lazy.CachedStates(), p.lazy.Demoted())
			continue
		}
		t.Logf("%s: lazy-dfa %.2f× nfa-bitset (floor %.2f×, states=%d)", p.name, ratio, floor, p.lazy.CachedStates())
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation, not memory, bounds the walk, so interleaving cannot pay; plain go test checks the lane and segment floors")
	}
	for _, p := range compilePaperTiers(t, scanDesigns()[1:], lazydfa.Lanes*64<<10) {
		s := p.tiers()
		if ratio := speedup(s.lanes, s.sequential, floorSpan); ratio < laneFloor {
			t.Errorf("%s: %d warm streams interleaved are %.2f× the same streams one after another (fastest runs over %v), below the %.2f× floor (states=%d demoted=%v)",
				p.name, lazydfa.Lanes, ratio, floorSpan, laneFloor, p.lazy.CachedStates(), p.lazy.Demoted())
		} else {
			t.Logf("%s: interleaved %.2f× sequential (floor %.2f×, states=%d)", p.name, ratio, laneFloor, p.lazy.CachedStates())
		}
		if ratio := speedup(s.segments, s.unsplit, segmentSpan); ratio < laneFloor {
			t.Errorf("%s: one warm %d KiB stream in %d speculative segments is %.2f× its one-cursor walk (fastest runs over %v), below the %.2f× floor (states=%d demoted=%v cuts met=%d missed=%d)",
				p.name, len(p.input)>>10, lazydfa.Lanes, ratio, segmentSpan, laneFloor, p.lazy.CachedStates(), p.lazy.Demoted(),
				p.lazy.SpeculationHits(), p.lazy.SpeculationMisses())
		} else {
			t.Logf("%s: segments %.2f× unsplit (floor %.2f×, cuts met=%d missed=%d)", p.name, ratio, laneFloor,
				p.lazy.SpeculationHits(), p.lazy.SpeculationMisses())
		}
	}
}

// BenchmarkTiers reports MB/s on the tiers the floors compare, for each
// paper design and each of the repository benchmark's scan designs: the
// lazy walk (the segment walk, as every stream of 16 KiB or more), its
// one-cursor walk lazy-dfa-unsplit, the bitset walk, and lazy-dfa-x4, the
// same input cut into lazydfa.Lanes streams walked interleaved: go test
// -bench Tiers ./internal/lazydfa.
func BenchmarkTiers(b *testing.B) {
	for _, p := range compilePaperTiers(b, append(paperDesigns(), scanDesigns()...), 1<<20) {
		s := p.tiers()
		for _, side := range []tier{s.lazy, s.unsplit, s.bitset, s.lanes} {
			b.Run(p.name+"/"+side.name, func(b *testing.B) {
				b.SetBytes(int64(len(p.input)))
				for i := 0; i < b.N; i++ {
					side.run()
				}
			})
		}
	}
}
