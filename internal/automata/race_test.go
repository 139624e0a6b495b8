//go:build race

package automata_test

func init() { raceEnabled = true }
