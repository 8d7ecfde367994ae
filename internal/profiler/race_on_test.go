//go:build race

package profiler

// raceEnabled reports that the race detector is active; its instrumentation
// allocates, so allocation-regression tests skip themselves under -race.
const raceEnabled = true
