//go:build race

package rapid

func init() { raceEnabled = true }
