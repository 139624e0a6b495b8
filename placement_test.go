package rapid

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/ap"
	"repro/internal/automata"
	"repro/internal/place"
)

func compilePatternDesign(t *testing.T, pats []string) *Design {
	t.Helper()
	prog, err := Parse(`
macro find(String s) {
  whenever (ALL_INPUT == input()) {
    foreach (char c : s) c == input();
    report;
  }
}
network (String[] pats) { some (String p : pats) find(p); }
`)
	if err != nil {
		t.Fatal(err)
	}
	design, err := prog.Compile(Strings(pats))
	if err != nil {
		t.Fatal(err)
	}
	return design
}

// TestPlacementArtifactRoundTrip: an EnsurePlaced design persists its
// placement, and the restored design carries the identical layout without
// re-running placement.
func TestPlacementArtifactRoundTrip(t *testing.T) {
	design := compilePatternDesign(t, []string{"abc", "bcd", "cde"})
	if design.HasPlacement() {
		t.Fatal("fresh design claims a placement")
	}
	if restored, err := design.EnsurePlaced(nil); err != nil || restored {
		t.Fatalf("EnsurePlaced = (%v, %v), want fresh placement", restored, err)
	}
	data, err := design.MarshalArtifact()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"placement"`) {
		t.Fatal("placed artifact has no placement section")
	}

	loaded, err := UnmarshalArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.HasStoredPlacement() || loaded.HasPlacement() {
		t.Fatal("loaded artifact should carry a stored, not-yet-validated placement")
	}
	restored, err := loaded.EnsurePlaced(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !restored {
		t.Fatal("stored placement section was not restored")
	}
	want, got := design.placed, loaded.placed
	if want.Metrics != got.Metrics || want.Stamped != got.Stamped {
		t.Fatalf("restored metrics %+v != original %+v", got.Metrics, want.Metrics)
	}
	if len(want.BlockOf) != len(got.BlockOf) {
		t.Fatalf("restored BlockOf len %d != %d", len(got.BlockOf), len(want.BlockOf))
	}
	for i := range want.BlockOf {
		if want.BlockOf[i] != got.BlockOf[i] || want.RowOf[i] != got.RowOf[i] {
			t.Fatalf("element %d layout differs: block %d/%d row %d/%d",
				i, got.BlockOf[i], want.BlockOf[i], got.RowOf[i], want.RowOf[i])
		}
	}
	pl, err := loaded.PlaceAndRoute()
	if err != nil {
		t.Fatal(err)
	}
	if pl.TotalBlocks != want.Metrics.TotalBlocks {
		t.Fatalf("PlaceAndRoute did not reuse the restored placement: %d blocks, want %d",
			pl.TotalBlocks, want.Metrics.TotalBlocks)
	}
}

// TestPlacementArtifactV1Accepted: a previous-format artifact (no
// placement section) must still load — old caches degrade into a fresh
// placement, never a rejection.
func TestPlacementArtifactV1Accepted(t *testing.T) {
	design := compilePatternDesign(t, []string{"abc"})
	data, err := design.MarshalArtifact()
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	env["format"] = json.RawMessage("1")
	delete(env, "placement")
	v1, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}

	loaded, err := UnmarshalArtifact(v1)
	if err != nil {
		t.Fatalf("v1 artifact rejected: %v", err)
	}
	if loaded.HasStoredPlacement() {
		t.Fatal("v1 artifact claims a stored placement")
	}
	restored, err := loaded.EnsurePlaced(nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored {
		t.Fatal("restored=true without a stored section")
	}
	if !loaded.HasPlacement() {
		t.Fatal("EnsurePlaced left the design unplaced")
	}
}

// TestPlacementArtifactCorruptSectionFallsBack: a damaged placement
// section degrades into a recomputed placement, reported via
// restored=false so callers can count the miss and re-persist.
func TestPlacementArtifactCorruptSectionFallsBack(t *testing.T) {
	// A multi-block design, so that blocks can collide or overflow.
	design := compilePatternDesign(t, macroPatterns(200, 0))
	if _, err := design.EnsurePlaced(nil); err != nil {
		t.Fatal(err)
	}
	data, err := design.MarshalArtifact()
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(p *artifactPlacement)) *Design {
		t.Helper()
		var env artifactEnvelope
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatal(err)
		}
		mutate(env.Placement)
		bad, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := UnmarshalArtifact(bad)
		if err != nil {
			t.Fatalf("corrupt placement section must not fail loading: %v", err)
		}
		return loaded
	}
	cases := map[string]func(p *artifactPlacement){
		"truncated-blocks": func(p *artifactPlacement) { p.Blocks = p.Blocks[:1] },
		"wrong-elements":   func(p *artifactPlacement) { p.Elements += 3 },
		"block-range":      func(p *artifactPlacement) { p.Blocks[0] = p.TotalBlocks + 7 },
		"row-range":        func(p *artifactPlacement) { p.Rows[0] = -2 },
		"physical-len":     func(p *artifactPlacement) { p.Physical = nil },
		"physical-repeat":  func(p *artifactPlacement) { p.Physical[1] = p.Physical[0] },
		"block-overflow": func(p *artifactPlacement) {
			for i, b := range p.Blocks {
				if b > 0 {
					p.Blocks[i] = 0
				}
			}
		},
	}
	for name, mutate := range cases {
		loaded := corrupt(mutate)
		if !loaded.HasStoredPlacement() {
			t.Fatalf("%s: section lost before validation", name)
		}
		restored, err := loaded.EnsurePlaced(nil)
		if err != nil {
			t.Fatalf("%s: fallback placement failed: %v", name, err)
		}
		if restored {
			t.Fatalf("%s: corrupt section was restored", name)
		}
		if !loaded.HasPlacement() {
			t.Fatalf("%s: no placement after fallback", name)
		}
		if loaded.HasStoredPlacement() {
			t.Fatalf("%s: corrupt section still attached", name)
		}
	}
}

// macroPatterns builds a macro-heavy pattern bank: n distinct literals of
// one length, i.e. n instances of one component shape. (Below ~32
// patterns the device optimization's merged start tracker keeps the whole
// design one connected component; at macro scale it crosses the broadcast
// threshold and the pattern instances separate — the stamping workload.)
func macroPatterns(n, salt int) []string {
	pats := make([]string, n)
	for i := range pats {
		pats[i] = fmt.Sprintf("p%03d:%03d", i, salt)
	}
	return pats
}

// TestPlacementCacheSharedAcrossDesigns: two designs that are variants of
// one rule family share footprints through a PlacementCache, and the
// instances place via stamping.
func TestPlacementCacheSharedAcrossDesigns(t *testing.T) {
	cache := NewPlacementCache()
	a := compilePatternDesign(t, macroPatterns(40, 1))
	b := compilePatternDesign(t, macroPatterns(40, 2))
	if _, err := a.EnsurePlaced(cache); err != nil {
		t.Fatal(err)
	}
	if _, err := b.EnsurePlaced(cache); err != nil {
		t.Fatal(err)
	}
	if cache.Shapes() == 0 {
		t.Fatal("placement cache cached no shapes")
	}
	if a.placed.Stamped == 0 || b.placed.Stamped == 0 {
		t.Fatalf("macro bank did not stamp: a=%d b=%d", a.placed.Stamped, b.placed.Stamped)
	}
	pl, err := a.PlaceAndRoute()
	if err != nil {
		t.Fatal(err)
	}
	if pl.Stamped != a.placed.Stamped {
		t.Fatalf("public Placement.Stamped = %d, want %d", pl.Stamped, a.placed.Stamped)
	}
}

// TestDeviceNetworkDerivedOnce: the device backend of a placed design
// steps the placed network itself, and EnsurePlaced, NewRunner and
// OptimizeForDevice share one derivation of it, fresh or restored from an
// artifact.
func TestDeviceNetworkDerivedOnce(t *testing.T) {
	derived := 0
	deviceNetwork = func(n *automata.Network) *automata.Network {
		derived++
		return place.DeviceNetwork(n)
	}
	defer func() { deviceNetwork = place.DeviceNetwork }()

	design := compilePatternDesign(t, []string{"abc", "abd", "xbd"})
	if _, err := design.EnsurePlaced(nil); err != nil {
		t.Fatal(err)
	}
	data, err := design.MarshalArtifact()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := UnmarshalArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if restored, err := loaded.EnsurePlaced(nil); err != nil || !restored {
		t.Fatalf("EnsurePlaced on the artifact = (%v, %v), want restored", restored, err)
	}
	for name, d := range map[string]*Design{"placed": design, "restored": loaded} {
		r, err := d.NewRunner()
		if err != nil {
			t.Fatal(err)
		}
		if r.net != d.placed.Network {
			t.Fatalf("%s: the runner does not step the placed network", name)
		}
		if d.OptimizeForDevice().net != d.placed.Network {
			t.Fatalf("%s: OptimizeForDevice is not the placed network", name)
		}
		got, err := r.Run(context.Background(), []byte("xxabdxbdabc"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := d.RunBytes([]byte("xxabdxbdabc"))
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || !sameReportSet(got, want) {
			t.Fatalf("%s: device reports %v, reference %v", name, got, want)
		}
	}
	if derived != 2 {
		t.Fatalf("the device network was derived %d times for 2 designs, want once each", derived)
	}
}

// TestEmptyDeviceNetwork: a design whose device network is empty (it
// matches but nothing in it can report) builds every backend, and each
// reports nothing. The program is the shape of generated conformance
// cases (rapidconform -seed 7) whose device backend once failed to build.
func TestEmptyDeviceNetwork(t *testing.T) {
	prog, err := Parse("network (int p5, String p6, String p7) { foreach (char c : p6) c == input(); }")
	if err != nil {
		t.Fatal(err)
	}
	design, err := prog.Compile(Int(3), Str("ab"), Str(""))
	if err != nil {
		t.Fatal(err)
	}
	if n := design.OptimizeForDevice().net.Len(); n != 0 || design.Stats().STEs == 0 {
		t.Fatalf("device network has %d elements (compiled: %d STEs), want 0 of a non-empty design",
			n, design.Stats().STEs)
	}
	for _, kind := range BackendKinds() {
		m, err := design.Backend(kind)
		if err != nil {
			t.Fatalf("Backend(%s): %v", kind, err)
		}
		got, err := m.Match(context.Background(), []byte("\xffab\xffxyz"))
		if err != nil || len(got) != 0 {
			t.Fatalf("%s: Match = %v, %v; want no reports", kind, got, err)
		}
	}
	r, err := design.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Run(ctx, []byte("ab")); err != context.Canceled {
		t.Fatalf("cancelled run error = %v, want context.Canceled", err)
	}
}

// TestEstimatedRuntime pins the runtime model: the nominal symbol rate
// scaled by the design's clock divisor, linear in the stream length.
func TestEstimatedRuntime(t *testing.T) {
	if rt := newPlacement(place.Metrics{ClockDivisor: 2}, 0).EstimatedRuntime(ap.SymbolRate); rt != 2*time.Second {
		t.Fatalf("one second of symbols at divisor 2 = %v, want 2s", rt)
	}
	est := newPlacement(place.Metrics{ClockDivisor: 1}, 0).EstimatedRuntime
	r1, r2 := est(1_000_000), est(2_000_000)
	if diff := r2 - 2*r1; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("runtime not linear: %v vs %v", r1, r2)
	}
}
