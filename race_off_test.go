//go:build !race

package unijoin_test

// raceEnabled reports whether the tests run under the race detector,
// whose sync.Pool drops Puts at random.
const raceEnabled = false
