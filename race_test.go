//go:build race

package cookiewalk_test

// raceEnabled reports a -race build. The race runtime drops a share of
// sync.Pool puts on purpose, so a visit outside a campaign allocates
// more under it than the tight uncached budgets allow.
const raceEnabled = true
