package conformance

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/lang/interp"
	"repro/internal/lang/value"
	"repro/internal/rapidgen"
)

// SoakConfig parameterizes a generate-and-check campaign.
type SoakConfig struct {
	Seed          int64
	Programs      int           // number of programs to generate (≤0: run until Duration)
	Duration      time.Duration // wall-clock bound (0: until Programs)
	Inputs        int           // input streams per program (default 6)
	Gen           *rapidgen.Config
	OutDir        string // directory for shrunk reproducer files ("" = don't write)
	StopOnFailure bool
	Log           func(format string, args ...interface{}) // optional progress sink
}

// SoakFailure is one divergence, shrunk to a minimal reproducer.
type SoakFailure struct {
	Seed   int64  // per-program generator seed (rapidgen.Replay input)
	Check  string // check name from the original failure
	Detail string // original (pre-shrink) detail
	Source string // shrunk program source
	Args   []value.Value
	Input  []byte // shrunk input stream (nil for input-independent checks)
	Path   string // reproducer file path when OutDir was set
}

// SoakResult aggregates a campaign.
type SoakResult struct {
	Programs int
	Distinct int
	Checks   int
	Coverage map[string]bool
	Skips    map[string]int
	Failures []*SoakFailure
	// Evictions and Demotions sum the cases' long-stream cache counts.
	Evictions, Demotions int
}

// CoverageComplete reports whether every required statement kind was
// generated at least once.
func (r *SoakResult) CoverageComplete() (missing []string) {
	for _, k := range rapidgen.StmtKinds {
		if !r.Coverage[k] {
			missing = append(missing, k)
		}
	}
	return missing
}

// Soak generates programs and conformance-checks each one. Divergences
// are shrunk to minimal reproducers; generation is fully deterministic
// in cfg.Seed (modulo the wall-clock cutoff).
func Soak(cfg SoakConfig) (*SoakResult, error) {
	if cfg.Inputs <= 0 {
		cfg.Inputs = 6
	}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	var g *rapidgen.Generator
	if cfg.Gen != nil {
		g = rapidgen.NewWithConfig(cfg.Seed, *cfg.Gen)
	} else {
		g = rapidgen.New(cfg.Seed)
	}

	res := &SoakResult{Coverage: map[string]bool{}, Skips: map[string]int{}}
	distinct := map[string]bool{}
	deadline := time.Time{}
	if cfg.Duration > 0 {
		deadline = time.Now().Add(cfg.Duration)
	}

	for i := 0; cfg.Programs <= 0 || i < cfg.Programs; i++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		p := g.Program()
		res.Programs++
		distinct[p.Source] = true
		for k := range p.Coverage {
			res.Coverage[k] = true
		}

		c := &Case{Source: p.Source, Args: p.Args, Inputs: rapidgen.Inputs(p, cfg.Inputs), Seed: p.Seed}
		out, err := Check(c)
		if err != nil {
			// The generator validated this program; a setup error here is
			// itself a conformance failure (e.g. public pipeline rejects
			// what core accepted).
			out = &Outcome{}
			out.fail("setup", nil, "%v", err)
		}
		res.Checks += out.Checks
		res.Evictions += out.Evictions
		res.Demotions += out.Demotions
		for k, n := range out.Skips {
			res.Skips[k] += n
		}
		for _, f := range out.Failures {
			sf := shrinkFailure(c, f, res)
			res.Failures = append(res.Failures, sf)
			logf("FAIL seed=%d %s", p.Seed, f)
			if cfg.OutDir != "" {
				path, werr := writeReproducer(cfg.OutDir, sf)
				if werr != nil {
					return res, werr
				}
				sf.Path = path
				logf("  reproducer: %s", path)
			}
			if cfg.StopOnFailure {
				res.Distinct = len(distinct)
				return res, nil
			}
		}
		if (i+1)%100 == 0 {
			logf("%d programs, %d checks, %d failures", res.Programs, res.Checks, len(res.Failures))
		}
	}
	res.Distinct = len(distinct)
	return res, nil
}

// shrinkFailure minimizes the failing program (and, for input-dependent
// checks, the failing input) while the same check keeps failing.
func shrinkFailure(c *Case, f *Failure, res *SoakResult) *SoakFailure {
	sf := &SoakFailure{Seed: c.Seed, Check: f.Check, Detail: f.Detail, Source: c.Source, Args: c.Args, Input: f.Input}

	failsSame := func(src string, input []byte) bool {
		cand := &Case{Source: src, Args: c.Args, Inputs: [][]byte{input}}
		if input == nil {
			cand.Inputs = c.Inputs
		}
		out, err := Check(cand)
		if err != nil {
			return f.Check == "setup"
		}
		for _, cf := range out.Failures {
			if cf.Check == f.Check {
				return true
			}
		}
		return false
	}

	if !failsSame(sf.Source, sf.Input) {
		// Not reproducible in isolation (e.g. flaky ordering); keep the
		// original unshrunken evidence.
		return sf
	}
	sf.Source = rapidgen.Shrink(sf.Source, func(src string) bool { return failsSame(src, sf.Input) })
	if sf.Input != nil {
		sf.Input = rapidgen.ShrinkInput(sf.Input, func(in []byte) bool { return failsSame(sf.Source, in) })
	}
	return sf
}

// writeReproducer renders a shrunk failure as a corpus-format file.
func writeReproducer(dir string, sf *SoakFailure) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("fail-seed%d-%s.rapid", sf.Seed, sanitize(sf.Check))
	path := filepath.Join(dir, name)

	inputs := [][]byte{sf.Input}
	if sf.Input == nil {
		inputs = [][]byte{{}}
	}
	expected := make([][]int, len(inputs))
	if prog, err := core.Load(sf.Source); err == nil {
		for i, in := range inputs {
			if reps, err := prog.Interpret(sf.Args, in, nil); err == nil {
				expected[i] = interp.Offsets(reps)
			}
		}
	}
	if err := WriteCorpusFile(path, sf.Source, sf.Args, inputs, expected); err != nil {
		return "", err
	}
	return path, nil
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
