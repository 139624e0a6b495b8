//go:build race

package place

func init() { raceEnabled = true }
