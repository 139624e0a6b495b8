package ap

// DefectMap marks which blocks of a board are defective. Defective blocks
// are a fact of life on memory-derived silicon: the HEP deployments of AP
// boards routed designs around bad blocks, and the placement engine does
// the same; loading a design onto one is a hard error on real silicon.
type DefectMap struct {
	defective []bool
	count     int
}

// NewDefectMap builds a map for total blocks with the listed defects.
// Indices outside [0, total) and repeated indices are ignored.
func NewDefectMap(total int, defective ...int) *DefectMap {
	m := &DefectMap{defective: make([]bool, total)}
	for _, b := range defective {
		if b >= 0 && b < total && !m.defective[b] {
			m.defective[b] = true
			m.count++
		}
	}
	return m
}

// Total returns the number of blocks the map covers.
func (m *DefectMap) Total() int { return len(m.defective) }

// Defective reports whether block b is defective. Out-of-range blocks are
// reported defective (they do not exist).
func (m *DefectMap) Defective(b int) bool {
	return b < 0 || b >= len(m.defective) || m.defective[b]
}

// Count returns the number of defective blocks.
func (m *DefectMap) Count() int { return m.count }

// Healthy returns the number of usable blocks.
func (m *DefectMap) Healthy() int { return len(m.defective) - m.count }

// Defects returns the defective block indices in increasing order.
func (m *DefectMap) Defects() []int {
	out := make([]int, 0, m.count)
	for b, bad := range m.defective {
		if bad {
			out = append(out, b)
		}
	}
	return out
}
