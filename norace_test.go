//go:build !race

package cookiewalk_test

const raceEnabled = false
