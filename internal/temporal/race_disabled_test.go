//go:build !race

package temporal

// raceEnabled reports that this test binary was built with the race
// detector; see race_enabled_test.go.
const raceEnabled = false
