//go:build !race

package monitor

// raceEnabled reports that this test binary was built with the race
// detector; see race_enabled_test.go.
const raceEnabled = false
