package p2pbound

import (
	"math"
	"sync/atomic"
	"time"

	"p2pbound/internal/red"
	"p2pbound/internal/throughput"
)

// ramp is the paper's Equation 1 over a metered uplink: a meter of
// passed outbound bytes, the linear prober, and a cache of the drop
// probability. Every Limiter embeds one over its own traffic. A tenant
// shard's aggregate budget is one over the traffic of all its tenants,
// and each tenant's P_d is red.Combine-d with it (hierarchical RED, the
// Andreica & Tapuş resource-allocation framing), so one seeding
// subscriber raises pressure on its whole shard.
//
// The rate, and so P_d, only changes when bytes are added or simulated
// time crosses a meter bucket boundary, so pd recomputes only then.
// pdUntil is the exclusive end of the bucket cachedPd is valid for.
// A ramp is single-writer, like the limiters it serves; with mirror
// set, pdBits and uplinkBits publish the fresh values to scrapes.
type ramp struct {
	meter       *throughput.Meter
	prober      red.Prober
	bucketWidth time.Duration
	pdUntil     time.Duration //p2p:confined limproc
	pdValid     bool          //p2p:confined limproc
	cachedPd    float64       //p2p:confined limproc

	mirror     bool
	pdBits     atomic.Uint64 //p2p:atomic
	uplinkBits atomic.Uint64 //p2p:atomic
}

// init sets r up with the given Equation 1 thresholds (bits per second)
// over a meter of window (default 5 s) in one-second buckets.
func (r *ramp) init(lowBps, highBps float64, window time.Duration) error {
	prober, err := red.NewLinear(lowBps, highBps)
	if err != nil {
		return err
	}
	if window <= 0 {
		window = 5 * time.Second
	}
	buckets := max(1, int(window/time.Second))
	r.bucketWidth = window / time.Duration(buckets)
	meter, err := throughput.NewMeter(r.bucketWidth, buckets)
	if err != nil {
		return err
	}
	r.meter, r.prober = meter, prober
	return nil
}

// add meters n passed outbound bytes at simulated time ts and
// invalidates the cached P_d.
//
//p2p:hotpath
//p2p:confined limproc
func (r *ramp) add(ts time.Duration, n int) {
	r.meter.Add(ts, n)
	r.pdValid = false
}

// pd returns the drop probability at simulated time ts, recomputing it
// only on the first call, after an add, or when ts enters a new meter
// bucket.
//
//p2p:hotpath
//p2p:confined limproc
func (r *ramp) pd(ts time.Duration) float64 {
	if !r.pdValid || ts >= r.pdUntil {
		r.refresh(ts)
	}
	return r.cachedPd
}

// refresh recomputes the cached P_d at ts. The mirrors are stored only
// on a bucket crossing: outbound traffic invalidates the cache per
// packet, an atomic store is a full fence, and within-bucket drift is
// invisible at scrape cadence.
//
//p2p:hotpath
//p2p:confined limproc
func (r *ramp) refresh(ts time.Duration) {
	crossed := ts >= r.pdUntil
	rate := r.meter.Rate(ts)
	r.cachedPd = r.prober.Pd(rate)
	r.pdUntil = ts - ts%r.bucketWidth + r.bucketWidth
	r.pdValid = true
	if r.mirror && crossed {
		r.pdBits.Store(math.Float64bits(r.cachedPd))
		r.uplinkBits.Store(math.Float64bits(rate))
	}
}
