//go:build race

package phasepoly

func init() { raceEnabled = true }
