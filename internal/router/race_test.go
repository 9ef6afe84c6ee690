//go:build race

package router

// The race detector makes sync.Pool drop items at random, so pooled
// buffers are not reused reliably under -race.
func init() { raceEnabled = true }
