// Package throughput measures uplink and downlink bandwidth over sliding
// windows of simulated time. The paper notes that computing P_d "requires
// only the knowledge of current bandwidth throughput, which is an essential
// component in off-the-shelf network devices"; this package is that
// component.
//
// Meters are driven exclusively by packet timestamps, so replaying a trace
// produces identical measurements regardless of wall-clock speed.
package throughput

import (
	"errors"
	"strconv"
	"sync/atomic"
	"time"
)

// Meter measures the byte rate of one traffic direction over a sliding
// window of fixed-width buckets. Time should advance monotonically
// through Add calls, but the meter tolerates capture-clock regressions:
// a timestamp behind the current bucket is accounted to the current
// bucket rather than rewinding the window, so a backward NTP step can
// never un-expire history or corrupt the ring cursors.
type Meter struct {
	bucketWidth time.Duration
	buckets     []int64 // ring of per-bucket byte counts
	head        int     // ring index of the current bucket
	headStart   time.Duration
	started     bool
	// totalBytes is atomic so TotalBytes can serve a monitoring scrape
	// concurrently with the single writer that drives Add.
	totalBytes atomic.Int64 //p2p:atomic
}

// NewMeter builds a meter whose window is nBuckets buckets of bucketWidth
// each. A 5-bucket, 1-second meter reports the mean rate over the last
// five seconds.
func NewMeter(bucketWidth time.Duration, nBuckets int) (*Meter, error) {
	if bucketWidth <= 0 {
		return nil, errors.New("throughput: bucket width must be positive, got " + bucketWidth.String())
	}
	if nBuckets <= 0 {
		return nil, errors.New("throughput: bucket count must be positive, got " + strconv.Itoa(nBuckets))
	}
	return &Meter{
		bucketWidth: bucketWidth,
		buckets:     make([]int64, nBuckets),
	}, nil
}

// Add accounts n bytes observed at simulated time ts.
//
//p2p:hotpath
func (m *Meter) Add(ts time.Duration, n int) {
	m.advance(ts)
	m.buckets[m.head] += int64(n)
	m.totalBytes.Add(int64(n))
}

// Rate returns the mean throughput in bits per second over the window
// ending at simulated time ts. Buckets that have rotated out since the
// last Add contribute zero.
//
//p2p:hotpath
func (m *Meter) Rate(ts time.Duration) float64 {
	m.advance(ts)
	var sum int64
	for _, b := range m.buckets {
		sum += b
	}
	window := m.bucketWidth * time.Duration(len(m.buckets))
	return float64(sum*8) / window.Seconds()
}

// Header loads the meter state Add and Rate read first — the ring
// position and the current bucket's line — and returns a value derived
// from it. A batch kernel calls it for many meters in a row, so that
// their misses overlap; the caller folds the result into a sink so the
// loads stay.
//
//p2p:hotpath
func (m *Meter) Header() uint64 {
	return uint64(m.headStart) + uint64(m.buckets[m.head])
}

// TotalBytes returns the total bytes accounted since construction. It
// is safe to call from any goroutine concurrently with Add.
//
//p2p:hotpath
func (m *Meter) TotalBytes() int64 { return m.totalBytes.Load() }

// Window returns the measurement window span.
func (m *Meter) Window() time.Duration {
	return m.bucketWidth * time.Duration(len(m.buckets))
}

// advance rotates the ring so that ts falls inside the current bucket,
// clearing buckets that fall out of the window.
//
//p2p:hotpath
func (m *Meter) advance(ts time.Duration) {
	if !m.started {
		m.started = true
		m.headStart = ts - ts%m.bucketWidth
		return
	}
	if ts < m.headStart {
		// Clock regression: keep accounting to the current bucket. The
		// window never rewinds, so the reported rate can only err toward
		// counting recent bytes as more recent than they were.
		return
	}
	if gap := ts - m.headStart; gap > m.bucketWidth*time.Duration(len(m.buckets)) {
		// The whole window has elapsed; skip ahead instead of rotating
		// bucket by bucket through a long idle period.
		for i := range m.buckets {
			m.buckets[i] = 0
		}
		m.head = 0
		m.headStart = ts - ts%m.bucketWidth
		return
	}
	for ts >= m.headStart+m.bucketWidth {
		m.head = (m.head + 1) % len(m.buckets)
		m.buckets[m.head] = 0
		m.headStart += m.bucketWidth
	}
}

// Pair bundles an uplink and a downlink meter, the two directions an edge
// router distinguishes.
type Pair struct {
	Up   *Meter
	Down *Meter
}

// NewPair builds identical meters for both directions.
func NewPair(bucketWidth time.Duration, nBuckets int) (*Pair, error) {
	up, err := NewMeter(bucketWidth, nBuckets)
	if err != nil {
		return nil, err
	}
	down, err := NewMeter(bucketWidth, nBuckets)
	if err != nil {
		return nil, err
	}
	return &Pair{Up: up, Down: down}, nil
}
