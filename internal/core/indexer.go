package core

import (
	"p2pbound/internal/errfmt"
	"p2pbound/internal/hashes"
	"p2pbound/internal/packet"
)

// Indexer derives a packet's m filter indexes for one geometry: hash
// kind, m, n, scheme, layout and hole-punch mode. Derivation reads the
// key and those settings only — never rotation state or the seed — so
// every filter built from one Config derives the same indexes, and a
// tenant manager derives each packet's indexes once, whichever
// subscriber's filter then decides it. HashBatch derives through the
// same Derive.
type Indexer struct {
	family  *hashes.Family
	m       int
	enc     packet.KeyEncoder
	klen    uint64
	oneshot bool
	blocked bool
	hp      bool
}

// NewIndexer returns the Indexer of cfg's geometry.
func NewIndexer(cfg Config) (*Indexer, error) {
	kind := cfg.HashKind
	if kind == 0 {
		kind = hashes.FNVDouble
	}
	scheme, layout, err := hashes.ResolveSchemeLayout(cfg.HashScheme, cfg.Layout)
	if err != nil {
		return nil, errfmt.Wrap("core", err)
	}
	ix, err := newIndexer(kind, cfg.M, cfg.NBits, scheme, layout, cfg.HolePunch)
	if err != nil {
		return nil, err
	}
	return &ix, nil
}

func newIndexer(kind hashes.Kind, m int, nbits uint, scheme hashes.Scheme, layout hashes.Layout, hp bool) (Indexer, error) {
	family, err := hashes.NewFamily(kind, m, nbits)
	if err != nil {
		return Indexer{}, errfmt.Wrap("core", err)
	}
	klen := uint64(packet.KeySize)
	if hp {
		klen = packet.HolePunchKeySize
	}
	return Indexer{
		family:  family,
		m:       m,
		enc:     packet.NewKeyEncoder(hp),
		klen:    klen,
		oneshot: scheme == hashes.SchemeOneShot,
		blocked: layout == hashes.LayoutBlocked,
		hp:      hp,
	}, nil
}

// Derive writes the m indexes of each of pkts into sums, packet i's at
// [i·m, i·m+m). The key is the socket pair as the outbound side sees
// it, so both directions of a flow derive the same indexes. One-shot
// derivations hash from the socket-pair fields directly (KeyWords): the
// key never round-trips through the encoder buffer, whose byte stores
// and overlapping word loads defeat store-to-load forwarding. Per-index
// families walk key bytes and keep the encoder path.
//
//p2p:hotpath
func (x *Indexer) Derive(sums []uint32, pkts []packet.Packet) {
	// Locals rather than x's fields, so the stores to sums are not
	// pinned behind the opaque hash calls.
	m := x.m
	fam := x.family
	oneshot, blocked, hp, klen := x.oneshot, x.blocked, x.hp, x.klen
	for i := range pkts {
		pair := pkts[i].Pair
		if pkts[i].Dir != packet.Outbound {
			pair = pair.Inverse()
		}
		group := sums[i*m : i*m+m]
		if !oneshot {
			fam.SumInto(group, x.enc.Outbound(pair))
			continue
		}
		var a, b uint64
		if hp {
			a, b = pair.HolePunchKeyWords()
		} else {
			a, b = pair.KeyWords()
		}
		h := hashes.Sum64Words(a, b, klen)
		if blocked {
			fam.BlockedInto(group, h)
		} else {
			fam.DerivedInto(group, h)
		}
	}
}
