package ap

import (
	"reflect"
	"testing"
)

func TestDefectMapExplicitBlocks(t *testing.T) {
	m := NewDefectMap(8, 2, 5, 99, -1)
	if got := m.Defects(); !reflect.DeepEqual(got, []int{2, 5}) {
		t.Fatalf("defects = %v, want [2 5]", got)
	}
	if !m.Defective(2) || m.Defective(3) {
		t.Fatal("Defective misreports in-range blocks")
	}
	// Out-of-range blocks do not exist and must read as unusable.
	if !m.Defective(-1) || !m.Defective(8) {
		t.Fatal("out-of-range blocks should be defective")
	}
	if m.Healthy() != 6 {
		t.Fatalf("healthy = %d, want 6", m.Healthy())
	}
	// Duplicates count once; out-of-range indices not at all.
	dup := NewDefectMap(8, 2, 2, -1, 9)
	if dup.Count() != 1 || dup.Healthy() != 7 || !reflect.DeepEqual(dup.Defects(), []int{2}) {
		t.Fatalf("duplicate/out-of-range input: count %d, healthy %d, defects %v", dup.Count(), dup.Healthy(), dup.Defects())
	}
}
