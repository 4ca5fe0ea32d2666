//go:build race

package schema

func init() { raceEnabled = true }
