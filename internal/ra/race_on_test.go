//go:build race

package ra

// raceDetectorEnabled marks a -race build, in which sync.Pool drops a
// share of what is put back, so pooled allocations stop being constant.
const raceDetectorEnabled = true
