// Package red computes the conditional dropping probability P_d applied to
// inbound packets that miss the bitmap filter.
//
// Equation 1 of the paper defines P_d as a RED-like linear ramp between a
// low threshold L and a high threshold H of measured uplink throughput:
//
//	P_d = 0            if b ≤ L
//	P_d = (b−L)/(H−L)  if L < b < H
//	P_d = 1            if b ≥ H
package red

import (
	"errors"
	"strconv"
)

// Prober yields the drop probability for the current uplink throughput in
// bits per second. Implementations must return values in [0, 1].
type Prober interface {
	Pd(throughputBps float64) float64
}

// Linear is the Equation 1 ramp. The zero value (L = H = 0) always
// returns 1 for positive throughput; construct with NewLinear.
type Linear struct {
	low  float64
	high float64
}

// NewLinear builds the Equation 1 prober with the given low and high
// uplink-throughput thresholds in bits per second. The paper's Figure 9
// simulation uses L = 50 Mbps and H = 100 Mbps.
func NewLinear(lowBps, highBps float64) (*Linear, error) {
	if lowBps < 0 || highBps <= lowBps {
		return nil, errors.New("red: need 0 <= L < H, got L=" + strconv.FormatFloat(lowBps, 'g', -1, 64) +
			" H=" + strconv.FormatFloat(highBps, 'g', -1, 64))
	}
	return &Linear{low: lowBps, high: highBps}, nil
}

// Pd implements Prober with the Equation 1 piecewise-linear ramp.
//
//p2p:hotpath
func (l *Linear) Pd(throughputBps float64) float64 {
	switch {
	case throughputBps <= l.low:
		return 0
	case throughputBps >= l.high:
		return 1
	default:
		return (throughputBps - l.low) / (l.high - l.low)
	}
}

// Always is a constant prober. Always(1) reproduces the Figure 8
// configuration, which drops every inbound packet without state.
type Always float64

// Pd implements Prober with a constant probability.
//
//p2p:hotpath
func (a Always) Pd(float64) float64 {
	switch {
	case a < 0:
		return 0
	case a > 1:
		return 1
	default:
		return float64(a)
	}
}

// Combine nests a tenant's drop probability under an aggregate uplink
// budget: the combined probability is the chance of losing at least one
// of two independent draws,
//
//	P = 1 − (1−tenant)·(1−agg)
//
// — the hierarchical-RED composition of a multi-tenant edge. A
// subscriber below its own L contributes tenant = 0, so edge-wide
// pressure (agg > 0) still reaches it proportionally; a subscriber at
// its own H drops everything regardless of the aggregate; and a
// saturated edge (agg = 1) fails closed for every tenant at once.
//
// The boundary cases are exact, not merely within floating-point error:
// when either input is ≤ 0 the other is returned unchanged, so a
// disabled or idle aggregate budget leaves the per-tenant ramp
// bit-identical to a bare limiter — the property the one-tenant
// differential equivalence test pins.
//
//p2p:hotpath
func Combine(tenant, agg float64) float64 {
	switch {
	case agg <= 0:
		return tenant
	case tenant <= 0:
		return agg
	case tenant >= 1 || agg >= 1:
		return 1
	default:
		return 1 - (1-tenant)*(1-agg)
	}
}

// Observed wraps a Prober and reports every computed (throughput, P_d)
// pair to a callback — the seam observability layers use to watch the
// RED ramp without re-deriving it. The callback runs synchronously on
// the probing goroutine; it must be fast and must not call back into
// the prober.
type Observed struct {
	Prober
	Fn func(throughputBps, pd float64)
}

// Pd delegates to the wrapped prober and reports the result.
func (o Observed) Pd(throughputBps float64) float64 {
	pd := o.Prober.Pd(throughputBps)
	if o.Fn != nil {
		o.Fn(throughputBps, pd)
	}
	return pd
}
