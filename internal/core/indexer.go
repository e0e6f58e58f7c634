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
// derive through it, so a bit means the same socket pair everywhere. Derivation reads the key and
// those settings only — never rotation state or the seed — so every
// filter built from one Config derives the same indexes, and a tenant
// manager derives each packet's indexes once, whichever subscriber's
// filter then decides it. An Indexer carries key-encoding scratch: use
// one per goroutine.
type Indexer struct {
	family  *hashes.Family
	m       int
	enc     packet.KeyEncoder
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
		enc:     packet.NewKeyEncoder(cfg.HolePunch),
		klen:    klen,
		blocked: cfg.Layout == hashes.LayoutBlocked,
		hp:      cfg.HolePunch,
	}, nil
}

// Derive writes the m indexes of each of pkts into sums, packet i's at
// [i·m, i·m+m). The key is the socket pair as the outbound side sees
// it, so both directions of a flow derive the same indexes. The classic
// layout's per-index family walks key bytes through the encoder. The
// blocked layout's one-shot hash reads the socket-pair fields directly
// (KeyWords): the key never round-trips through the encoder buffer,
// whose byte stores and overlapping word loads defeat store-to-load
// forwarding. The loop body is Into's, written out so a chunk pays no
// call per packet.
//
//p2p:hotpath
func (x *Indexer) Derive(sums []uint32, pkts []packet.Packet) {
	// Locals rather than x's fields, so the stores to sums are not
	// pinned behind the opaque hash calls.
	m := x.m
	fam := x.family
	blocked, hp, klen := x.blocked, x.hp, x.klen
	for i := range pkts {
		pair := pkts[i].Pair
		if pkts[i].Dir != packet.Outbound {
			pair = pair.Inverse()
		}
		group := sums[i*m : i*m+m]
		if !blocked {
			fam.SumInto(group, x.enc.Outbound(pair))
			continue
		}
		var a, b uint64
		if hp {
			a, b = pair.HolePunchKeyWords()
		} else {
			a, b = pair.KeyWords()
		}
		fam.BlockedInto(group, hashes.Sum64Words(a, b, klen))
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
	if dir != packet.Outbound {
		pair = pair.Inverse()
	}
	if !x.blocked {
		x.family.SumInto(dst, x.enc.Outbound(pair))
		return
	}
	var a, b uint64
	if x.hp {
		a, b = pair.HolePunchKeyWords()
	} else {
		a, b = pair.KeyWords()
	}
	x.family.BlockedInto(dst, hashes.Sum64Words(a, b, x.klen))
}
