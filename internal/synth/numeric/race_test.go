//go:build race

package numeric

func init() { raceEnabled = true }
