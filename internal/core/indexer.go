package core

import (
	"p2pbound/internal/errfmt"
	"p2pbound/internal/hashes"
	"p2pbound/internal/packet"
)

// Indexer derives a packet's m filter indexes for one geometry: m, n,
// layout (which selects the scheme) and hole-punch mode. It is the
// only code that turns a socket pair into filter indexes — filters,
// the tenant manager's batch kernel, and the offload fast path all
// derive through it, so a bit means the same socket pair everywhere.
// Derivation reads the key and those settings only — never rotation
// state or the seed — so every filter built from one Config derives
// the same indexes, and a tenant manager derives each packet's indexes
// once, whichever subscriber's filter then decides it. Both layouts
// hash the key as the two words packet.SocketPair.KeyWords computes in
// registers; an Indexer holds no scratch, so goroutines may share one.
type Indexer struct {
	family  *hashes.Family
	m       int
	klen    uint64
	blocked bool
	hp      bool
}

// NewIndexer returns the Indexer of cfg's geometry.
func NewIndexer(cfg Config) (*Indexer, error) {
	ix, err := newIndexer(cfg)
	if err != nil {
		return nil, err
	}
	return &ix, nil
}

// newIndexer is NewIndexer by value, for a filter to embed.
func newIndexer(cfg Config) (Indexer, error) {
	cfg, err := cfg.Resolve()
	if err != nil {
		return Indexer{}, err
	}
	family, err := hashes.NewFamily(cfg.M, cfg.NBits)
	if err != nil {
		return Indexer{}, errfmt.Wrap("core", err)
	}
	klen := uint64(packet.KeySize)
	if cfg.HolePunch {
		klen = packet.HolePunchKeySize
	}
	return Indexer{
		family:  family,
		m:       cfg.M,
		klen:    klen,
		blocked: cfg.Layout == hashes.LayoutBlocked,
		hp:      cfg.HolePunch,
	}, nil
}

// Derive writes the m indexes of each of pkts into sums, packet i's at
// [i·m, i·m+m). The key is the socket pair as the outbound side sees
// it, so both directions of a flow derive the same indexes. Both
// layouts read the key as the two words KeyWords (or HolePunchKeyWords)
// computes from the socket-pair fields: the classic layout's per-index
// family runs FNV-1a over their bytes (SumWordsInto), the blocked
// layout's one-shot hash folds them (Sum64Words). The key never goes
// through a byte buffer, whose stores and reloads defeat store-to-load
// forwarding, nor through a SocketPair variable: the words come from
// the packet's own pair or straight from Inverse's result, since a copy
// of a pair Inverse has just stored field by field stalls the same way
// (see packet.SocketPair.KeyWords). The loop body is Into's, written
// out so a chunk pays no call per packet.
//
//p2p:hotpath
func (x *Indexer) Derive(sums []uint32, pkts []packet.Packet) {
	// Locals rather than x's fields, so the stores to sums are not
	// pinned behind the opaque hash calls.
	m := x.m
	fam := x.family
	blocked, hp, klen := x.blocked, x.hp, x.klen
	for i := range pkts {
		pair, out := &pkts[i].Pair, pkts[i].Dir == packet.Outbound
		var a, b uint64
		switch {
		case out && !hp:
			a, b = pair.KeyWords()
		case out:
			a, b = pair.HolePunchKeyWords()
		case !hp:
			a, b = pair.Inverse().KeyWords()
		default:
			a, b = pair.Inverse().HolePunchKeyWords()
		}
		group := sums[i*m : i*m+m]
		if blocked {
			fam.BlockedInto(group, hashes.Sum64Words(a, b, klen))
		} else {
			fam.SumWordsInto(group, a, b, klen)
		}
	}
}

// Into writes into dst (length m) the indexes of one socket pair seen
// in direction dir: exactly what Derive writes for a packet with that
// pair and direction. It is the per-packet entry of the filter's own
// Sums, Mark and Contains and of the offload fast path's probe. The
// pair is taken by value, so no packet record is copied to reach it.
//
//p2p:hotpath
func (x *Indexer) Into(dst []uint32, pair packet.SocketPair, dir packet.Direction) {
	out := dir == packet.Outbound
	var a, b uint64
	switch {
	case out && !x.hp:
		a, b = pair.KeyWords()
	case out:
		a, b = pair.HolePunchKeyWords()
	case !x.hp:
		a, b = pair.Inverse().KeyWords()
	default:
		a, b = pair.Inverse().HolePunchKeyWords()
	}
	if x.blocked {
		x.family.BlockedInto(dst, hashes.Sum64Words(a, b, x.klen))
	} else {
		x.family.SumWordsInto(dst, a, b, x.klen)
	}
}
