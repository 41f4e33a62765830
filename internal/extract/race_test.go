//go:build race

package extract

// raceEnabled reports a race-detector build. The race runtime makes
// sync.Pool drop items at random, so pooled scratch is reallocated and
// allocation budgets over pooled paths cannot hold.
const raceEnabled = true
