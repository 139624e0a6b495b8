package lazydfa

import (
	"context"

	"repro/internal/automata"
)

// RunUnsplit is RunGroup with the segment walk off, so a lone stream walks
// one cursor however long it is: the side the floors hold the lane and
// segment walks against. Each tier's speculation verdict is restored after.
func (m *Matcher) RunUnsplit(ctx context.Context, inputs [][]byte) ([][]automata.Report, error) {
	for _, t := range m.tiers {
		defer func(on bool) { t.speculate = on }(t.speculate)
		t.speculate = false
	}
	return m.RunGroup(ctx, inputs)
}
