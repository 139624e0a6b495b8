package harness

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/tables.golden from the current tables")

// TestTablesGolden pins every non-timing column of the paper's tables:
// Tables 4 and 5 as rapidbench prints them, and Table 6's problem sizes,
// block counts, tessellation densities, STE utilizations and mean BR
// allocations at 2% scale — everything the block row model feeds. A
// compiler, optimizer or placement change that moves any of them shows up
// as a diff against testdata/tables.golden; when the change is intended,
// regenerate the file with
// go test ./internal/harness -run TablesGolden -update.
func TestTablesGolden(t *testing.T) {
	t4, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	t5, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	t6, err := Table6(0.02)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(FormatTable4(t4) + "\n" + FormatTable5(t5) + "\n")
	b.WriteString("Table 6 at scale 0.02, timing columns omitted\n")
	fmt.Fprintf(&b, "%-10s %-2s %12s %12s %9s %10s %14s\n",
		"Benchmark", "S", "Problem Size", "Total Blocks", "Per Block", "STE Util.", "Mean BR Alloc.")
	for _, r := range t6 {
		fmt.Fprintf(&b, "%-10s %-2s %12d %12d %9d %9.3f%% %13.3f%%\n", r.Benchmark, r.Strategy,
			r.ProblemSize, r.TotalBlocks, r.PerBlock, 100*r.STEUtil, 100*r.MeanBRAlloc)
	}
	got := b.String()

	path := filepath.Join("testdata", "tables.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("tables differ from %s; if intended, rerun with -update\n--- want\n%s--- got\n%s", path, want, got)
	}
}
