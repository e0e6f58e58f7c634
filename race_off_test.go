//go:build !race

package p2pbound

// See race_on_test.go.
const raceEnabled = false
