package rapid

import "testing"

// FuzzCompileRegex asserts that no pattern — however malformed — can panic
// the regex front end: every input, compiled alone by CompileRegexSet,
// either yields a runnable design or returns an error.
//
// Run with: go test -fuzz=FuzzCompileRegex .
func FuzzCompileRegex(f *testing.F) {
	for _, seed := range []string{
		"",
		"abc",
		"^abc",
		"a|b|",
		"(",
		")",
		"(()",
		"[",
		"[]",
		"[^]",
		"[z-a]",
		"[a-",
		"a**",
		"a{",
		"a{2,1}",
		"a{1,2}",
		"a{1024}",
		"a{1025}",
		"a{1,2,3}",
		"\\",
		"\\d+\\w*",
		"\\xff",
		"\\xgg",
		"(a|bc)*d+[ef]{2,3}",
		".*(a.[^b])+?",
		"a{3}{3}",
		"(a{40}){40}",
		"\x00\xff[\x00-\xff]",
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, pattern string) {
		if len(pattern) > 64 {
			return // bound counted-repetition blowup, not panic coverage
		}
		design, err := CompileRegexSet([]string{pattern})
		if err != nil {
			return
		}
		// Accepted patterns must yield a simulatable design.
		if _, err := design.RunBytes([]byte("aab\xffc")); err != nil {
			t.Fatalf("compiled design does not run: %v", err)
		}
	})
}
