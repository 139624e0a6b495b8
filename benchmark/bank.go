package main

import (
	"fmt"
	"strings"
	"time"

	rapid "repro"
	"repro/internal/bench"
	"repro/internal/telemetry"
)

// designSpec names one design of the bank: a paper benchmark application at
// an instance count.
type designSpec struct {
	name string
	app  *bench.Benchmark
	n    int
}

func (s designSpec) source() (string, []rapid.Value) { return s.app.RAPID(s.n) }

// bank is the design set every workload's set-up builds cold from RAPID
// source: four applications at six instance counts plus Brill at its Table 3
// size. A workload drives only a few of them; the rest are what a serving
// process mounts beside the hot designs.
func bank() []designSpec {
	var out []designSpec
	for _, app := range []*bench.Benchmark{bench.Exact(), bench.ARM(), bench.Gappy(), bench.Motomata()} {
		for _, n := range []int{1, 2, 4, 8, 16, 32} {
			out = append(out, designSpec{fmt.Sprintf("%s-%d", strings.ToLower(app.Name), n), app, n})
		}
	}
	brill := bench.Brill()
	return append(out, designSpec{"brill", brill, brill.DefaultInstances})
}

func specByName(name string) designSpec {
	for _, s := range bank() {
		if s.name == name {
			return s
		}
	}
	panic("benchmark: no bank design " + name)
}

// compile parses and compiles one design without placing it.
func (s designSpec) compile() (*rapid.Design, error) {
	src, args := s.source()
	prog, err := rapid.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", s.name, err)
	}
	d, err := prog.Compile(args...)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", s.name, err)
	}
	return d, nil
}

// bankLayers is the time each compile layer took over the whole bank, and
// the two exact sizes the layers produce.
type bankLayers struct {
	parse, compile, place, engine time.Duration
	stes, shapes                  int
}

// built is one design of a bank built in process.
type built struct {
	design *rapid.Design
	engine *rapid.Engine
}

// buildBank compiles the bank cold: source → parse → compile → place (fresh
// PlacementCache) → engine, timing each layer through its public function.
// A nil reg builds engines with no options, which is what a user gets.
func buildBank(reg *telemetry.Registry) (map[string]built, bankLayers, error) {
	var opts []rapid.Option
	if reg != nil {
		opts = append(opts, rapid.WithTelemetry(reg))
	}
	cache := rapid.NewPlacementCache()
	out := make(map[string]built)
	var l bankLayers
	for _, s := range bank() {
		src, args := s.source()
		t0 := time.Now()
		prog, err := rapid.Parse(src)
		if err != nil {
			return nil, l, fmt.Errorf("parse %s: %w", s.name, err)
		}
		t1 := time.Now()
		d, err := prog.Compile(args...)
		if err != nil {
			return nil, l, fmt.Errorf("compile %s: %w", s.name, err)
		}
		t2 := time.Now()
		if _, err := d.EnsurePlaced(cache); err != nil {
			return nil, l, fmt.Errorf("place %s: %w", s.name, err)
		}
		t3 := time.Now()
		eng, err := d.NewEngine(opts...)
		if err != nil {
			return nil, l, fmt.Errorf("engine %s: %w", s.name, err)
		}
		t4 := time.Now()
		l.parse += t1.Sub(t0)
		l.compile += t2.Sub(t1)
		l.place += t3.Sub(t2)
		l.engine += t4.Sub(t3)
		l.stes += d.Stats().STEs
		out[s.name] = built{d, eng}
	}
	l.shapes = cache.Shapes()
	return out, l, nil
}
