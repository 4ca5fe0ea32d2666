//go:build race

package ingest

func init() { raceEnabled = true }
