//go:build race

package cookiewalk_test

// raceEnabled reports a -race build. The race runtime allocates more
// bytes per visit than the tight uncached byte budgets allow.
const raceEnabled = true
