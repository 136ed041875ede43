//go:build race

package serve

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// is Put, so allocation counts that rely on a warm pool do not hold.
const raceEnabled = true
