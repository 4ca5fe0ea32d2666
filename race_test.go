//go:build race

package jxplain

func init() { raceEnabled = true }
