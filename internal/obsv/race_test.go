//go:build race

package obsv

func init() { raceEnabled = true }
