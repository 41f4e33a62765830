//go:build race

package ranking_test

// raceEnabled reports a race-detector build. The race runtime makes
// sync.Pool drop items at random, so pooled buffers are reallocated and
// allocation budgets over pooled paths cannot hold.
const raceEnabled = true
