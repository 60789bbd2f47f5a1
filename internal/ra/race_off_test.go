//go:build !race

package ra

const raceDetectorEnabled = false
