package p2pbound

import (
	"fmt"
	"time"
)

// ShardedLimiter distributes packets across independent Limiter shards by
// connection hash, giving a goroutine-safe limiter for multi-queue packet
// pipelines (one RSS queue per shard is the natural deployment).
//
// Both directions of a connection always land on the same shard — the
// shard hash uses the connection's canonical (order-independent) endpoint
// pair — so the positive-listing semantics are preserved exactly. Each
// shard meters only the uplink traffic it passes, and the RED thresholds
// are split evenly across shards; with hash-balanced traffic the aggregate
// behaviour approximates a single limiter with the full thresholds, while
// each shard remains single-threaded and lock-free on its hot path.
type ShardedLimiter struct {
	shards []*Limiter
}

// NewSharded builds n independent shards from cfg. The per-shard RED
// thresholds are cfg.LowMbps/n and cfg.HighMbps/n; everything else is
// inherited. Shard i uses cfg.Seed+i so drop draws stay reproducible.
func NewSharded(cfg Config, n int) (*ShardedLimiter, error) {
	if n <= 0 {
		return nil, fmt.Errorf("p2pbound: shard count must be positive, got %d", n)
	}
	if cfg.LowMbps == 0 && cfg.HighMbps == 0 {
		cfg.LowMbps, cfg.HighMbps = 50, 100
	}
	cfg.LowMbps /= float64(n)
	cfg.HighMbps /= float64(n)
	return newLimiterSet(cfg, n)
}

// newLimiterSet builds n limiters from cfg, member i seeded cfg.Seed+i
// so drop draws stay reproducible. NewSharded splits the thresholds
// before; a Fleet's members keep them whole.
func newLimiterSet(cfg Config, n int) (*ShardedLimiter, error) {
	s := &ShardedLimiter{shards: make([]*Limiter, n)}
	seed := cfg.Seed
	for i := range s.shards {
		cfg.Seed = seed + uint64(i)
		l, err := New(cfg)
		if err != nil {
			return nil, err
		}
		s.shards[i] = l
	}
	return s, nil
}

// Shards returns the number of shards.
func (s *ShardedLimiter) Shards() int { return len(s.shards) }

// ShardOf returns the shard index packet p belongs to. Callers running one
// goroutine per shard route packets with this and then call
// ProcessOnShard from the owning goroutine. Unroutable packets (non-IPv4
// addresses) all map to shard 0, whose Limiter counts and drops them.
func (s *ShardedLimiter) ShardOf(p Packet) int {
	if !p.SrcAddr.Is4() || !p.DstAddr.Is4() {
		return 0
	}
	// Order-independent endpoint hash: σ and σ̄ must agree.
	h := connHash(p)
	return int(h % uint64(len(s.shards)))
}

// ProcessOnShard decides a packet on the given shard. The caller must
// ensure that each shard index is only ever used from one goroutine at a
// time, and that per-shard timestamps are non-decreasing.
func (s *ShardedLimiter) ProcessOnShard(shard int, p Packet) Decision {
	return s.shards[shard].Process(p)
}

// Process routes the packet to its shard and decides it. This convenience
// form is for single-goroutine use; concurrent pipelines should route via
// ShardOf and own one shard per goroutine.
func (s *ShardedLimiter) Process(p Packet) Decision {
	return s.ProcessOnShard(s.ShardOf(p), p)
}

// MemoryBytes returns the total bitmap memory across shards.
func (s *ShardedLimiter) MemoryBytes() int {
	total := 0
	for _, l := range s.shards {
		total += l.MemoryBytes()
	}
	return total
}

// ExpiryHorizon returns the shared T_e of the shards.
func (s *ShardedLimiter) ExpiryHorizon() time.Duration {
	return s.shards[0].ExpiryHorizon()
}

// Stats sums the per-shard activity counters. Safe to call from any
// goroutine concurrently with processing — every counter is an atomic —
// but cross-counter identities only hold on a quiescent limiter.
func (s *ShardedLimiter) Stats() Stats {
	var sum Stats
	for _, l := range s.shards {
		st := l.Stats()
		sum.OutboundPackets += st.OutboundPackets
		sum.InboundPackets += st.InboundPackets
		sum.InboundMatched += st.InboundMatched
		sum.InboundUnmatched += st.InboundUnmatched
		sum.Dropped += st.Dropped
		sum.Rotations += st.Rotations
		sum.Unroutable += st.Unroutable
		sum.TimeAnomalies += st.TimeAnomalies
	}
	return sum
}

// UplinkMbps sums the measured uplink throughput across shards.
func (s *ShardedLimiter) UplinkMbps() float64 {
	total := 0.0
	for _, l := range s.shards {
		total += l.UplinkMbps()
	}
	return total
}

// connHash hashes the unordered endpoint pair of a packet so both
// directions of a connection agree.
func connHash(p Packet) uint64 {
	a := endpointHash(p.SrcAddr.As4(), p.SrcPort)
	b := endpointHash(p.DstAddr.As4(), p.DstPort)
	// Commutative combine, then protocol, then mix.
	h := a ^ b + uint64(p.Protocol)*0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

func endpointHash(addr [4]byte, port uint16) uint64 {
	v := uint64(addr[0])<<40 | uint64(addr[1])<<32 | uint64(addr[2])<<24 |
		uint64(addr[3])<<16 | uint64(port)
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	return v
}
