//go:build race

package monitor

// raceEnabled reports that this test binary was built with the race
// detector, whose instrumentation perturbs allocation counts; the
// zero-allocation gates skip themselves under it.
const raceEnabled = true
