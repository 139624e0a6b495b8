// Regexgrep: the regular-expression programming model the paper compares
// against, end to end — compile a pattern set with the Glushkov
// construction, inspect the design, check that the lazy-DFA backend
// reports exactly what the reference simulator does, and emit a
// standalone host driver (the compiler's second output in Section 5 of
// the paper).
package main

import (
	"context"
	"fmt"
	"log"
	"slices"

	rapid "repro"
)

func main() {
	patterns := []string{
		`GET /[a-z]+`,
		`POST /api/v[0-9]`,
		`[Ee]rror: .*`, // note: .* makes this report on every suffix symbol
	}
	design, err := rapid.CompileRegexSet(patterns[:2])
	if err != nil {
		log.Fatal(err)
	}
	s := design.Stats()
	fmt.Printf("pattern set: %d STEs, %d reporting positions\n", s.STEs, s.Reporting)

	logLines := "GET /index POST /api/v2 GET /LOGIN POST /apix"
	reports, err := design.RunBytes([]byte(logLines))
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range reports {
		fmt.Printf("  match ends at offset %2d  (%s)\n", r.Offset, design.Site(r.Code))
	}

	// The lazy-DFA backend determinizes the pattern set on the fly; it
	// must report the same (offset, code) set as the reference simulator.
	lazy, err := design.Backend(rapid.BackendLazyDFA)
	if err != nil {
		log.Fatal(err)
	}
	lazyReports, err := lazy.Match(context.Background(), []byte(logLines))
	if err != nil {
		log.Fatal(err)
	}
	if got, want := rapid.Canonical(lazyReports), rapid.Canonical(reports); !slices.Equal(got, want) {
		log.Fatalf("backends disagree: lazy-dfa %v, reference %v", got, want)
	}
	fmt.Printf("lazy-DFA backend agrees: %d reports\n", len(lazyReports))

	// The automaton and its device-optimized form are provably equivalent.
	if err := design.Equivalent(design.OptimizeForDevice()); err != nil {
		log.Fatal(err)
	}
	fmt.Println("device optimization proved behavior-preserving")

	// Shortest input that triggers any report.
	w, err := design.FindWitness(32)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shortest reporting input: %q\n", w)

	// Generate the standalone host driver program.
	driver, err := design.GenerateDriver("loggrep")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated host driver: %d bytes of Go source\n", len(driver))
}
