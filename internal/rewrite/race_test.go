//go:build race

package rewrite

func init() { raceEnabled = true }
