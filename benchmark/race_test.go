//go:build race

package main

// The engine writes Framework.LastPlanner unsynchronised (a hazard README.md
// lists), so two serve_mixed clients planning at once trip the race detector
// inside the engine, not in the benchmark.
func init() { raceDetector = true }
