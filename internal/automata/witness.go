package automata

import "fmt"

// The paper's future-work section calls for "tools aiding developers to
// generate short input sequences to test corner cases of their
// applications". FindWitness implements that tool: a breadth-first search
// over the design's configuration space that returns a shortest input
// stream causing a report.

// WitnessOptions configure the search.
type WitnessOptions struct {
	// Code restricts the search to reports with this code; nil accepts
	// any report.
	Code *int
	// MaxLength bounds the witness length. Default 64.
	MaxLength int
	// MaxStates bounds explored configurations. Default 1,000,000.
	MaxStates int
}

func (o *WitnessOptions) withDefaults() WitnessOptions {
	out := WitnessOptions{MaxLength: 64, MaxStates: 1_000_000}
	if o != nil {
		out.Code = o.Code
		if o.MaxLength > 0 {
			out.MaxLength = o.MaxLength
		}
		if o.MaxStates > 0 {
			out.MaxStates = o.MaxStates
		}
	}
	return out
}

// FindWitness returns a shortest input stream that makes the network
// report (optionally with a specific report code). It returns an error
// when no witness exists within the configured bounds.
//
// The search is exact over the network's configuration space — the set of
// enabled STEs plus all counter values — using one representative symbol
// per input-equivalence group. Each frontier node carries a simulator
// checkpoint, so expanding it is a restore and one step. Configurations
// are deduplicated on their exact bytes (a hash collision would silently
// prune a reachable configuration and could lose the witness), so for
// counter-free designs the search always terminates.
func (n *Network) FindWitness(opts *WitnessOptions) ([]byte, error) {
	o := opts.withDefaults()
	t, err := n.Freeze()
	if err != nil {
		return nil, err
	}
	part := Partition(t)
	sim := t.NewFastSimulator()

	type node struct {
		snap    *SimState
		witness []byte
	}
	visited := map[string]bool{}
	frontier := []node{{snap: sim.Snapshot()}}
	var key []byte
	states := 0
	for depth := 0; depth < o.MaxLength && len(frontier) > 0; depth++ {
		var next []node
		for _, nd := range frontier {
			for _, sym := range part.Representatives {
				states++
				if states > o.MaxStates {
					return nil, fmt.Errorf("automata: witness search exceeded %d states", o.MaxStates)
				}
				sim.Restore(nd.snap)
				before := len(sim.Reports())
				sim.Step(sym)
				w := append(append([]byte(nil), nd.witness...), sym)
				for _, r := range sim.Reports()[before:] {
					if o.Code == nil || r.Code == *o.Code {
						return w, nil
					}
				}
				key = AppendConfigKey(key[:0], sim.config, sim.offset == 0)
				if visited[string(key)] {
					continue
				}
				visited[string(key)] = true
				next = append(next, node{snap: sim.Snapshot(), witness: w})
			}
		}
		frontier = next
	}
	return nil, fmt.Errorf("automata: no witness of length <= %d", o.MaxLength)
}
