//go:build race

package lazydfa_test

func init() { raceEnabled = true }
