package p2pbound

import (
	"math/rand/v2"
	"testing"
	"time"

	"p2pbound/internal/throughput"
)

// TestRampMatchesUncachedMeter pins the P_d cache against the ramp it
// caches: a seeded mix of adds and reads — across bucket crossings,
// over idle gaps longer than the window, and behind the newest
// timestamp, as the aggregate budget sees from interleaved tenant
// clocks — must read exactly the prober over a twin meter fed the same
// adds, computed afresh at every read.
func TestRampMatchesUncachedMeter(t *testing.T) {
	for _, window := range []time.Duration{5 * time.Second, 2500 * time.Millisecond, 300 * time.Millisecond} {
		var r ramp
		if err := r.init(20e3, 80e3, window); err != nil {
			t.Fatal(err)
		}
		buckets := int(r.meter.Window() / r.bucketWidth)
		twin, err := throughput.NewMeter(r.bucketWidth, buckets)
		if err != nil {
			t.Fatal(err)
		}
		// Scale byte counts so the rate sweeps the whole ramp whatever
		// the window.
		scale := max(1, int(r.bucketWidth/(100*time.Millisecond)))
		rng := rand.New(rand.NewPCG(7, uint64(window)))
		var newest time.Duration
		var reads, inside int
		for i := 0; i < 40_000; i++ {
			ts := newest
			switch op := rng.IntN(100); {
			case op < 40:
				newest += time.Duration(rng.Int64N(int64(r.bucketWidth / 4)))
				ts = newest
			case op < 41:
				newest += r.meter.Window() + time.Duration(rng.Int64N(int64(2*r.meter.Window())))
				ts = newest
			case op < 60:
				ts = max(0, newest-time.Duration(rng.Int64N(int64(2*r.bucketWidth))))
			}
			if rng.IntN(3) == 0 {
				n := rng.IntN(400 * scale)
				r.add(ts, n)
				twin.Add(ts, n)
				continue
			}
			got, want := r.pd(ts), r.prober.Pd(twin.Rate(ts))
			if got != want {
				t.Fatalf("window %v, op %d at %v (newest %v): cached P_d %v, uncached %v", window, i, ts, newest, got, want)
			}
			reads++
			if got > 0 && got < 1 {
				inside++
			}
		}
		if inside < reads/10 {
			t.Fatalf("window %v: only %d of %d reads inside the ramp", window, inside, reads)
		}
	}
}
