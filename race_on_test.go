//go:build race

package p2pbound

// raceEnabled gates allocation-count assertions that go through the
// executor's sync.Pool: under the race detector the pool deliberately
// drops items to widen interleavings, so steady-state alloc counts are
// not meaningful.
const raceEnabled = true
