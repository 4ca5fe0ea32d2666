//go:build race

package jsontype

func init() { raceEnabled = true }
