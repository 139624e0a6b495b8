package core

import (
	"testing"

	"repro/internal/automata"
	"repro/internal/lang/value"
	"repro/internal/place"
)

const hammingSrc = `
macro hamming_distance(String s, int d) {
  Counter cnt;
  foreach (char c : s)
    if (c != input()) cnt.count();
  cnt <= d;
  report;
}
network (String[] comparisons) {
  some (String s : comparisons)
    hamming_distance(s, 1);
}`

func TestLoadAndCompile(t *testing.T) {
	p, err := Load(hammingSrc)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Params(); len(got) != 1 || got[0] != "comparisons" {
		t.Fatalf("Params = %v", got)
	}
	args := []value.Value{value.Strings([]string{"rapid", "tepid"})}
	res, err := p.Compile(args, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Network.Stats().Counters != 2 {
		t.Fatalf("counters = %d, want 2 (one per instance)", res.Network.Stats().Counters)
	}
	reports, err := p.Interpret(args, []byte("rapid"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("interpreter found no match")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load("not rapid"); err == nil {
		t.Error("garbage should fail to load")
	}
	if _, err := Load("network () { undefined(); }"); err == nil {
		t.Error("semantic errors should fail to load")
	}
}

func TestDetectTileable(t *testing.T) {
	p, err := Load(hammingSrc)
	if err != nil {
		t.Fatal(err)
	}
	args := []value.Value{value.Strings([]string{"aaa", "bbb", "ccc"})}
	spec, ok := p.DetectTileable(args)
	if !ok {
		t.Fatal("hamming network should be tileable")
	}
	if spec.ParamName != "comparisons" || spec.Count != 3 {
		t.Fatalf("spec = %+v", spec)
	}
	unit := spec.UnitArgs(args)
	if arr := unit[0].(value.Array); len(arr) != 1 {
		t.Fatalf("unit args = %v", unit)
	}
	// Original args untouched.
	if arr := args[0].(value.Array); len(arr) != 3 {
		t.Fatal("UnitArgs mutated the original arguments")
	}
}

func TestDetectTileableInsideWhenever(t *testing.T) {
	src := `
macro exact(String s) {
  foreach (char c : s) c == input();
  report;
}
network (String[] seqs) {
  whenever (ALL_INPUT == input()) {
    some (String s : seqs) exact(s);
  }
}`
	p, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	args := []value.Value{value.Strings([]string{"AC", "GT"})}
	if _, ok := p.DetectTileable(args); !ok {
		t.Fatal("some inside top-level whenever should be tileable")
	}
}

func TestNotTileable(t *testing.T) {
	src := `
macro m() { 'a' == input(); report; }
network () { m(); }`
	p, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.DetectTileable(nil); ok {
		t.Fatal("fixed design should not be tileable")
	}
	if _, err := p.Tessellate(nil); err == nil {
		t.Fatal("Tessellate should fail on non-tileable design")
	}
}

func TestTessellatePipeline(t *testing.T) {
	p, err := Load(hammingSrc)
	if err != nil {
		t.Fatal(err)
	}
	words := make([]string, 100)
	for i := range words {
		words[i] = "rapid"
	}
	args := []value.Value{value.Strings(words)}
	r, err := p.Tessellate(args)
	if err != nil {
		t.Fatal(err)
	}
	if r.Instances != 100 || r.PerBlock < 1 {
		t.Fatalf("result = %+v", r)
	}
	// Counters limit density to 4 per block... the hamming unit uses one
	// physical counter (cnt <= 1 → target 2), so at most 4 per block.
	if r.PerBlock > 4 {
		t.Fatalf("PerBlock = %d, want <= 4 (counter capacity)", r.PerBlock)
	}
}

// fanSrc's unit is 41 elements: the start-of-input tracker, 26 one-letter
// alternatives and a 14-letter chain whose first STE takes 26 in-edges,
// over the routing fan-in bound.
const fanSrc = `
macro fan(String s) {
  some (char c : "abcdefghijklmnopqrstuvwxyz") c == input();
  foreach (char c : s) c == input();
  report;
}
network (String[] words) { some (String w : words) fan(w); }`

// TestTessellateTilesDeviceNetwork pins that Tessellate tiles the unit's
// device network: no STE of Result.Unit exceeds the routing fan-in bound,
// and the footprint is the device network's. Tiling the unsplit unit
// instead, as Tessellate once did, gives 50 blocks where the split one
// needs 100.
func TestTessellateTilesDeviceNetwork(t *testing.T) {
	p, err := Load(fanSrc)
	if err != nil {
		t.Fatal(err)
	}
	words := make([]string, 100)
	for i := range words {
		words[i] = "rrrrrrrrrrrrrr"
	}
	args := []value.Value{value.Strings(words)}
	r, err := p.Tessellate(args)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := p.DetectTileable(args)
	unit, err := p.Compile(spec.UnitArgs(args), nil)
	if err != nil {
		t.Fatal(err)
	}
	if unit.Network.Len() != 41 {
		t.Fatalf("unit has %d elements, want 41", unit.Network.Len())
	}
	maxIn := 0
	r.Unit.Elements(func(e *automata.Element) {
		if e.Kind == automata.KindSTE {
			maxIn = max(maxIn, len(r.Unit.Ins(e.ID)))
		}
	})
	if maxIn == 0 || maxIn > place.DefaultFanInLimit {
		t.Fatalf("Result.Unit's widest STE fan-in is %d, want 1..%d", maxIn, place.DefaultFanInLimit)
	}
	if r.TotalBlocks != 100 || r.PerBlock != 1 {
		t.Fatalf("100 instances tile into %d blocks at %d per block, want 100 at 1", r.TotalBlocks, r.PerBlock)
	}
}

// TestDeviceNetwork: identical instances share structure in a program's
// device network.
func TestDeviceNetwork(t *testing.T) {
	p, err := Load(hammingSrc)
	if err != nil {
		t.Fatal(err)
	}
	full, err := p.Compile([]value.Value{value.Strings([]string{"rapid", "rapid"})}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dev := place.DeviceNetwork(full.Network)
	if dev.Stats().STEs >= full.Network.Stats().STEs {
		t.Fatalf("device STEs %d not reduced from %d", dev.Stats().STEs, full.Network.Stats().STEs)
	}
}

// TestPlaceAndRoute: placing a program's device network places that
// network and keeps the counter design's clock divisor.
func TestPlaceAndRoute(t *testing.T) {
	p, err := Load(hammingSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Compile([]value.Value{value.Strings([]string{"rapid", "tepid", "vapid"})}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dev := place.DeviceNetwork(res.Network)
	pl, err := place.Place(dev, place.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Network != dev {
		t.Fatal("Place did not place the network it was given")
	}
	if pl.Metrics.TotalBlocks < 1 {
		t.Fatalf("metrics = %+v", pl.Metrics)
	}
	if pl.Metrics.ClockDivisor != 2 {
		t.Fatalf("divisor = %d, want 2 (counter design)", pl.Metrics.ClockDivisor)
	}
}
