//go:build race

package circuit_test

func init() { raceEnabled = true }
