//go:build !race

package extract

// raceEnabled reports a race-detector build; see race_test.go.
const raceEnabled = false
