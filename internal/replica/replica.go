package replica

import (
	"fmt"
	"sync/atomic"

	"p2pbound/internal/bitvec"
	"p2pbound/internal/core"
)

// Config parameterizes one fleet member.
type Config struct {
	// ID is this node's replica ID, unique within the fleet.
	ID uint32
	// Peers lists the other members' IDs (not including ID). An empty
	// fleet of one is Ready immediately.
	Peers []uint32
	// DigestEvery is the anti-entropy cadence in ticks: every
	// DigestEvery-th Tick broadcasts range digests. Default 4.
	DigestEvery int
	// SuspectAfter is the liveness horizon in ticks: a peer unheard for
	// longer is excluded from ack quorums and readiness checks.
	// Default 3×DigestEvery.
	SuspectAfter int
	// RangeBlocks is the digest range width in 512-bit delta blocks.
	// Default 16 (one CRC per KiB of vector).
	RangeBlocks int
}

// Outbox carries an encoded frame toward peer `to`. The byte slice is
// reused across calls; the transport must copy it before returning
// (netsim.Mesh and the in-process fleet transport both do).
type Outbox func(to uint32, frame []byte)

// peerState tracks what we know about one fleet member.
type peerState struct {
	// ack is the highest delta sequence the peer acknowledged.
	ack uint64
	// lastHeard is the local tick of the last valid frame, -1 never.
	lastHeard int
	// heardDigest and digestOK drive readiness: a node activates when
	// every live peer's most recent digest matched its own state.
	heardDigest bool
	digestOK    bool
}

// Metrics is a point-in-time snapshot of a node's replication
// telemetry (all lifetime counters except the gauges noted).
type Metrics struct {
	DeltaFramesSent   int64
	DeltaBytesSent    int64
	DeltaBlocksSent   int64
	DeltaBlocksMerged int64
	AckFramesSent     int64

	DigestFramesSent     int64
	DigestFramesReceived int64
	DigestMismatchRanges int64
	RepairRounds         int64

	RepairFramesSent   int64
	RepairBytesSent    int64
	RepairBlocksMerged int64

	StaleSections  int64
	FramesRejected int64

	// SyncLagEpochs is a gauge: how far behind the fleet's newest
	// rotation count this node last observed itself.
	SyncLagEpochs int64
	// Ready mirrors Ready() for scrapes.
	Ready bool
}

// metrics is the node-internal atomic mirror of Metrics. The fields
// are atomics only so telemetry scrapes may read them from another
// goroutine; all writers run on the node's own goroutine.
type metrics struct {
	deltaFramesSent   atomic.Int64 //p2p:atomic
	deltaBytesSent    atomic.Int64 //p2p:atomic
	deltaBlocksSent   atomic.Int64 //p2p:atomic
	deltaBlocksMerged atomic.Int64 //p2p:atomic
	ackFramesSent     atomic.Int64 //p2p:atomic

	digestFramesSent     atomic.Int64 //p2p:atomic
	digestFramesReceived atomic.Int64 //p2p:atomic
	digestMismatchRanges atomic.Int64 //p2p:atomic
	repairRounds         atomic.Int64 //p2p:atomic

	repairFramesSent   atomic.Int64 //p2p:atomic
	repairBytesSent    atomic.Int64 //p2p:atomic
	repairBlocksMerged atomic.Int64 //p2p:atomic

	staleSections  atomic.Int64 //p2p:atomic
	framesRejected atomic.Int64 //p2p:atomic

	syncLagEpochs atomic.Int64 //p2p:atomic
	ready         atomic.Int64 //p2p:atomic
}

// Node replicates one Limiter's filter across a fleet. It is NOT
// safe for concurrent use: Tick and Handle must run on the goroutine
// that owns the filter (the same discipline as core.Filter itself).
// Metrics and Ready are safe to read from anywhere.
type Node struct {
	f    *core.Filter
	id   uint32
	k    int
	geom uint64

	peerIDs      []uint32
	peers        map[uint32]*peerState //p2p:confined replnode
	digestEvery  int
	suspectAfter int
	rangeBlocks  int

	// shadow is the last fleet-acknowledged image of each vector — by
	// construction a subset of the live vector within a generation, so
	// XOR(live, shadow) is exactly the bits not yet acked everywhere.
	//p2p:confined replnode
	shadow      []*bitvec.Vector
	shadowEpoch int64 //p2p:confined replnode

	// pending is the last delta broadcast, kept until the live-peer
	// min-ack covers pendingSeq, then folded into shadow.
	//p2p:confined replnode
	pending     []VectorSection
	pendingSeq  uint64 //p2p:confined replnode
	pendingOpen bool   //p2p:confined replnode

	seq       uint64 //p2p:confined replnode
	tick      int    //p2p:confined replnode
	helloSent bool   //p2p:confined replnode
	active    bool   //p2p:confined replnode

	buf     []byte   //p2p:confined replnode // reused frame encode buffer
	scratch []uint32 //p2p:confined replnode // reused digest buffer

	m metrics
}

// NewNode attaches replication state to a filter. The filter's
// rotation index is re-anchored to its rotation count (idx ≡
// rotations mod k) so vector generations derived from the count name
// the same physical vector on every member.
//
//p2p:confined replnode entry
func NewNode(f *core.Filter, cfg Config) (*Node, error) {
	k := f.VectorCount()
	if cfg.DigestEvery <= 0 {
		cfg.DigestEvery = 4
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 3 * cfg.DigestEvery
	}
	if cfg.RangeBlocks <= 0 {
		cfg.RangeBlocks = 16
	}
	for _, p := range cfg.Peers {
		if p == cfg.ID {
			return nil, fmt.Errorf("replica: node %d lists itself as a peer", cfg.ID)
		}
	}
	// Re-anchor idx ≡ rotations (mod k): generations are derived from
	// the rotation count alone, so every member must map count→vector
	// identically. Restores break the congruence (count resets to zero,
	// the index does not); AlignIndex relabels without clearing, and
	// the readiness gate keeps the node fail-closed until anti-entropy
	// confirms the relabeled state against the fleet.
	f.AlignIndex()
	n := &Node{
		f:            f,
		id:           cfg.ID,
		k:            k,
		geom:         Fingerprint(f.Config()),
		peerIDs:      append([]uint32(nil), cfg.Peers...),
		peers:        make(map[uint32]*peerState, len(cfg.Peers)),
		digestEvery:  cfg.DigestEvery,
		suspectAfter: cfg.SuspectAfter,
		rangeBlocks:  cfg.RangeBlocks,
		shadow:       make([]*bitvec.Vector, k),
		shadowEpoch:  f.Rotations(),
		active:       len(cfg.Peers) == 0,
	}
	nbits := uint(1) << f.Config().NBits
	for i := range n.shadow {
		n.shadow[i] = bitvec.New(nbits)
	}
	for _, p := range cfg.Peers {
		n.peers[p] = &peerState{lastHeard: -1}
	}
	n.m.ready.Store(b2i(n.active))
	return n, nil
}

// Fingerprint hashes the replication-relevant filter geometry: two
// nodes merge state only when their fingerprints agree, so a delta
// can never be interpreted against mismatched vector shapes. Seed and
// timing tolerances are deliberately excluded — they do not change
// where a key's bits land: under the paper's shared-hash design,
// hashing is seed-independent (the FNV-double construction takes no
// seed).
func Fingerprint(cfg core.Config) uint64 {
	cfg, _ = cfg.Resolve()
	fields := [...]uint64{
		uint64(cfg.K), uint64(cfg.NBits), uint64(cfg.M), uint64(cfg.DeltaT),
		// The retired hash-kind slot: the one construction, FNV-double,
		// was kind 1, and keeping it keeps every fleet fingerprint.
		1,
		uint64(cfg.HashScheme), uint64(cfg.Layout), uint64(b2i(cfg.HolePunch)),
	}
	// FNV-1a over the field words: stable, dependency-free, and more
	// than enough to catch accidental config drift.
	h := uint64(14695981039346656037)
	for _, f := range fields {
		for s := 0; s < 64; s += 8 {
			h ^= (f >> s) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// ID returns the node's replica ID.
func (n *Node) ID() uint32 { return n.id }

// Ready reports whether the node may serve traffic un-degraded: false
// while (re)joining, true once every live peer's latest digest matched
// this node's state. A not-Ready node's limiter runs fail-closed
// (P_d = 1) so a stale filter can never wave through traffic the
// fleet already marked. A totally isolated joiner therefore stays
// fail-closed — the safe choice for an enforcement box.
func (n *Node) Ready() bool { return n.m.ready.Load() != 0 }

// Epoch returns the node's rotation count (the fleet logical clock).
func (n *Node) Epoch() int64 { return n.f.Rotations() }

// Metrics snapshots the replication telemetry.
func (n *Node) Metrics() Metrics {
	return Metrics{
		DeltaFramesSent:      n.m.deltaFramesSent.Load(),
		DeltaBytesSent:       n.m.deltaBytesSent.Load(),
		DeltaBlocksSent:      n.m.deltaBlocksSent.Load(),
		DeltaBlocksMerged:    n.m.deltaBlocksMerged.Load(),
		AckFramesSent:        n.m.ackFramesSent.Load(),
		DigestFramesSent:     n.m.digestFramesSent.Load(),
		DigestFramesReceived: n.m.digestFramesReceived.Load(),
		DigestMismatchRanges: n.m.digestMismatchRanges.Load(),
		RepairRounds:         n.m.repairRounds.Load(),
		RepairFramesSent:     n.m.repairFramesSent.Load(),
		RepairBytesSent:      n.m.repairBytesSent.Load(),
		RepairBlocksMerged:   n.m.repairBlocksMerged.Load(),
		StaleSections:        n.m.staleSections.Load(),
		FramesRejected:       n.m.framesRejected.Load(),
		SyncLagEpochs:        n.m.syncLagEpochs.Load(),
		Ready:                n.Ready(),
	}
}

// genAt returns the generation of vector vec at rotation count epoch:
// the 1-based index of the last rotation that cleared it, 0 if it has
// never been cleared. Rotation r clears vector (r-1) mod k, so two
// nodes agree on a vector's generation from rotation counts alone —
// no per-vector version numbers on the wire.
func genAt(epoch int64, vec, k int) int64 {
	if epoch <= 0 {
		return 0
	}
	r := epoch - floorMod(epoch-1-int64(vec), int64(k))
	if r < 1 {
		return 0
	}
	return r
}

func floorMod(a, m int64) int64 {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// live reports whether a peer counts toward quorums: heard from
// within SuspectAfter ticks, with a joining grace period before the
// first frame.
//
//p2p:confined replnode
func (n *Node) live(p *peerState) bool {
	return n.tick-p.lastHeard <= n.suspectAfter
}

// catchUpShadow re-bases the acked shadow onto the filter's current
// rotation count: any vector whose generation changed since
// shadowEpoch was cleared by rotation, so its shadow is cleared too
// and any pending (unacked) patches for it are dropped — re-sending
// them would resurrect a dead generation's bits on peers.
//
//p2p:confined replnode
func (n *Node) catchUpShadow() {
	cur := n.f.Rotations()
	if cur == n.shadowEpoch {
		return
	}
	for v := 0; v < n.k; v++ {
		if genAt(cur, v, n.k) != genAt(n.shadowEpoch, v, n.k) {
			n.shadow[v].Clear()
			if n.pendingOpen {
				for i := range n.pending {
					if n.pending[i].Vec == uint32(v) {
						n.pending[i].Blocks = nil
					}
				}
			}
		}
	}
	n.shadowEpoch = cur
}

// tryFold folds the pending delta into the shadow once every live
// peer acked it. Suspect peers are excluded — a dead peer must not
// wedge the quorum — and re-learn the skipped bits from anti-entropy
// digests after they return and re-ack.
//
//p2p:confined replnode
func (n *Node) tryFold() {
	if !n.pendingOpen {
		return
	}
	for _, p := range n.peers {
		if n.live(p) && p.ack < n.pendingSeq {
			return
		}
	}
	for _, sec := range n.pending {
		for i := range sec.Blocks {
			// The shadow has the live vector's geometry, so a patch
			// diffed from it can only fail the range check if pruning
			// missed a generation change — which catchUpShadow runs
			// before every fold precisely to rule out.
			if _, err := n.shadow[sec.Vec].MergeBlock(sec.Blocks[i].Blk, &sec.Blocks[i].Words); err != nil {
				panic("replica: pending fold out of range: " + err.Error())
			}
		}
	}
	n.pending = n.pending[:0]
	n.pendingOpen = false
}

// Tick runs one replication round on the filter-owning goroutine:
// fold acked deltas, broadcast the cumulative unacked delta, and on
// the digest cadence broadcast range digests. The first tick also
// broadcasts Hello so peers reset their view of this (re)started node.
//
//p2p:confined replnode entry
func (n *Node) Tick(out Outbox) {
	n.catchUpShadow()
	n.tryFold()
	epoch := n.f.Rotations()

	if !n.helloSent {
		n.buf = EncodeHello(n.buf, n.id, epoch, n.geom)
		n.broadcast(out, n.buf)
		n.helloSent = true
	}

	// Cumulative delta: XOR against the acked shadow covers everything
	// unacked, so a lost delta frame is automatically retransmitted by
	// the next tick — no per-sequence retransmit buffers.
	secs := n.pending[:0]
	for v := 0; v < n.k; v++ {
		var blocks []BlockPatch
		err := n.f.Vector(v).DiffBlocks(n.shadow[v], func(blk uint32, xor *[bitvec.DeltaBlockWords]uint64) {
			blocks = append(blocks, BlockPatch{Blk: blk, Words: *xor})
		})
		if err != nil {
			panic("replica: shadow diff: " + err.Error())
		}
		if len(blocks) > 0 {
			secs = append(secs, VectorSection{Vec: uint32(v), Blocks: blocks})
		}
	}
	if len(secs) > 0 && len(n.peerIDs) > 0 {
		n.seq++
		n.buf = EncodeSections(n.buf, FrameDelta, n.id, epoch, n.geom, n.seq, secs)
		nblk := 0
		for _, s := range secs {
			nblk += len(s.Blocks)
		}
		n.m.deltaFramesSent.Add(int64(len(n.peerIDs)))
		n.m.deltaBytesSent.Add(int64(len(n.buf) * len(n.peerIDs)))
		n.m.deltaBlocksSent.Add(int64(nblk * len(n.peerIDs)))
		n.broadcast(out, n.buf)
		n.pending = secs
		n.pendingSeq = n.seq
		n.pendingOpen = true
	}

	if n.digestEvery > 0 && n.tick%n.digestEvery == 0 && len(n.peerIDs) > 0 {
		n.buf = n.encodeOwnDigest(epoch)
		n.m.digestFramesSent.Add(int64(len(n.peerIDs)))
		n.broadcast(out, n.buf)
	}
	n.tick++
}

//p2p:confined replnode
func (n *Node) broadcast(out Outbox, frame []byte) {
	for _, to := range n.peerIDs {
		out(to, frame)
	}
}

//p2p:confined replnode
func (n *Node) encodeOwnDigest(epoch int64) []byte {
	digests := make([]VectorDigest, n.k)
	for v := 0; v < n.k; v++ {
		n.scratch = n.f.Vector(v).AppendRangeDigests(n.rangeBlocks, n.scratch[:0])
		digests[v] = VectorDigest{Vec: uint32(v), CRCs: append([]uint32(nil), n.scratch...)}
	}
	return EncodeDigest(n.buf, n.id, epoch, n.geom, uint32(n.rangeBlocks), digests)
}

// Handle processes one incoming frame, replying through out. Errors
// are returned for observability; the filter is untouched by any
// frame that fails validation (checksum, geometry, or block bounds).
//
//p2p:confined replnode entry
func (n *Node) Handle(data []byte, out Outbox) error {
	fr, err := DecodeFrame(data)
	if err != nil {
		n.m.framesRejected.Add(1)
		return err
	}
	if fr.Geom != n.geom {
		n.m.framesRejected.Add(1)
		return fmt.Errorf("%w: fingerprint %#x, ours %#x", ErrGeometry, fr.Geom, n.geom)
	}
	if fr.Sender == n.id {
		n.m.framesRejected.Add(1)
		return fmt.Errorf("%w: frame from own ID %d", ErrGeometry, n.id)
	}
	// Validate the whole payload against local geometry before touching
	// any state — including the rotation clock. A frame either passes
	// every check and is applied in full, or fails one and leaves the
	// filter (vectors and epoch alike) byte-for-byte untouched.
	switch fr.Type {
	case FrameDelta, FrameRepair:
		err = n.validateSections(fr)
	case FrameDigest:
		err = n.validateDigest(fr)
	case FrameHello, FrameAck:
	default:
		err = fmt.Errorf("%w: unhandled type %d", ErrFrameMalformed, int(fr.Type))
	}
	if err != nil {
		n.m.framesRejected.Add(1)
		return err
	}
	// Epoch alignment before interpreting payload: the fleet logical
	// clock only moves forward. A frame from a newer epoch fast-forwards
	// local rotation (clearing overdue vectors — fail-closed); a frame
	// from an older epoch is handled at our epoch, its stale sections
	// skipped by the generation check.
	if remote := int64(fr.Epoch); remote > n.f.Rotations() {
		n.m.syncLagEpochs.Store(remote - n.f.Rotations())
		n.f.AlignRotations(remote)
		n.catchUpShadow()
	} else {
		n.m.syncLagEpochs.Store(0)
	}

	p := n.peers[fr.Sender]
	if p == nil {
		// A member not in our config (rolling reconfiguration): track it
		// for liveness/readiness but don't add it to the broadcast list —
		// membership is config-owned.
		p = &peerState{lastHeard: -1}
		n.peers[fr.Sender] = p
	}
	p.lastHeard = n.tick

	switch fr.Type {
	case FrameHello:
		// A (re)started peer: everything we knew about its acks and
		// digests is void. Fail its digest state so our readiness can't
		// ride on a pre-restart match, and answer with a unicast digest
		// so it can start repairing immediately.
		p.ack = 0
		p.heardDigest = false
		p.digestOK = false
		n.buf = n.encodeOwnDigest(n.f.Rotations())
		n.m.digestFramesSent.Add(1)
		out(fr.Sender, n.buf)
	case FrameAck:
		if fr.Seq > p.ack {
			p.ack = fr.Seq
		}
	case FrameDelta, FrameRepair:
		n.mergeSections(fr)
		if fr.Type == FrameDelta {
			n.buf = EncodeAck(n.buf, n.id, n.f.Rotations(), n.geom, fr.Seq)
			n.m.ackFramesSent.Add(1)
			out(fr.Sender, n.buf)
		}
	case FrameDigest:
		n.m.digestFramesReceived.Add(1)
		n.handleDigest(fr, p, out)
	default:
		// Unreachable: the validation switch above already rejected
		// unknown types; kept for the enum analyzer's exhaustiveness.
	}
	return nil
}

// validateSections checks every patch of every section — stale or not
// — against local geometry, touching nothing.
func (n *Node) validateSections(fr *Frame) error {
	for _, sec := range fr.Sections {
		if int(sec.Vec) >= n.k {
			return fmt.Errorf("%w: vector %d of %d", ErrGeometry, sec.Vec, n.k)
		}
		v := n.f.Vector(int(sec.Vec))
		for i := range sec.Blocks {
			if err := v.CheckBlock(sec.Blocks[i].Blk, &sec.Blocks[i].Words); err != nil {
				return fmt.Errorf("%w: vector %d block %d: %v", ErrGeometry, sec.Vec, sec.Blocks[i].Blk, err)
			}
		}
	}
	return nil
}

// validateDigest checks a digest frame's shape against local geometry,
// touching nothing.
func (n *Node) validateDigest(fr *Frame) error {
	if int(fr.BlocksPerRange) != n.rangeBlocks {
		return fmt.Errorf("%w: digest range width %d, ours %d", ErrGeometry, fr.BlocksPerRange, n.rangeBlocks)
	}
	for _, d := range fr.Digests {
		if int(d.Vec) >= n.k {
			return fmt.Errorf("%w: digest vector %d of %d", ErrGeometry, d.Vec, n.k)
		}
		if want := n.f.Vector(int(d.Vec)).RangeCount(n.rangeBlocks); len(d.CRCs) != want {
			return fmt.Errorf("%w: %d range digests, want %d", ErrGeometry, len(d.CRCs), want)
		}
	}
	return nil
}

// mergeSections applies a pre-validated Delta or Repair frame's
// patches, skipping sections whose vector generation differs.
func (n *Node) mergeSections(fr *Frame) {
	own := n.f.Rotations()
	merged := int64(0)
	for _, sec := range fr.Sections {
		// Merge only sections whose vector is the same generation at the
		// sender's epoch and ours — otherwise the bits describe a rotation
		// that one side has already cleared.
		if genAt(int64(fr.Epoch), int(sec.Vec), n.k) != genAt(own, int(sec.Vec), n.k) {
			n.m.staleSections.Add(1)
			continue
		}
		v := n.f.Vector(int(sec.Vec))
		for i := range sec.Blocks {
			if _, err := v.MergeBlock(sec.Blocks[i].Blk, &sec.Blocks[i].Words); err != nil {
				panic("replica: checked merge failed: " + err.Error())
			}
			merged++
		}
	}
	if fr.Type == FrameRepair {
		n.m.repairBlocksMerged.Add(merged)
	} else {
		n.m.deltaBlocksMerged.Add(merged)
	}
}

// handleDigest compares a pre-validated peer digest against local
// state, pushes repair blocks for divergent ranges, and updates
// readiness.
//
//p2p:confined replnode
func (n *Node) handleDigest(fr *Frame, p *peerState, out Outbox) {
	own := n.f.Rotations()
	seen := make([]bool, n.k)
	allMatch := true
	var repairs []VectorSection
	for _, d := range fr.Digests {
		seen[d.Vec] = true
		if genAt(int64(fr.Epoch), int(d.Vec), n.k) != genAt(own, int(d.Vec), n.k) {
			// Different generations legitimately hold different bits;
			// comparing them would trigger useless repair storms. The
			// epoch alignment above makes this transient.
			n.m.staleSections.Add(1)
			allMatch = false
			continue
		}
		v := n.f.Vector(int(d.Vec))
		n.scratch = v.AppendRangeDigests(n.rangeBlocks, n.scratch[:0])
		var blocks []BlockPatch
		for r := range d.CRCs {
			if d.CRCs[r] == n.scratch[r] {
				continue
			}
			allMatch = false
			n.m.digestMismatchRanges.Add(1)
			lo := r * n.rangeBlocks
			hi := lo + n.rangeBlocks
			if nb := v.DeltaBlocks(); hi > nb {
				hi = nb
			}
			for b := lo; b < hi; b++ {
				var patch BlockPatch
				patch.Blk = uint32(b)
				if err := v.BlockWords(uint32(b), &patch.Words); err != nil {
					panic("replica: digest block read: " + err.Error())
				}
				var zero [bitvec.DeltaBlockWords]uint64
				if patch.Words != zero {
					blocks = append(blocks, patch)
				}
			}
		}
		if len(blocks) > 0 {
			repairs = append(repairs, VectorSection{Vec: d.Vec, Blocks: blocks})
		}
	}
	for _, s := range seen {
		if !s {
			allMatch = false // partial digest can't prove convergence
		}
	}
	if len(repairs) > 0 {
		n.m.repairRounds.Add(1)
		n.buf = EncodeSections(n.buf, FrameRepair, n.id, own, n.geom, 0, repairs)
		n.m.repairFramesSent.Add(1)
		n.m.repairBytesSent.Add(int64(len(n.buf)))
		out(fr.Sender, n.buf)
	}
	p.heardDigest = true
	p.digestOK = allMatch
	if !n.active {
		n.reevaluateReadiness()
	}
}

// reevaluateReadiness promotes Joining→Active once every live peer's
// latest digest fully matched local state. Activation is one-way: a
// later divergence is repaired, not demoted — demotion would let a
// blip of packet loss flap the data path between open and fail-closed.
//
//p2p:confined replnode
func (n *Node) reevaluateReadiness() {
	anyLive := false
	for _, p := range n.peers {
		if !n.live(p) {
			continue
		}
		anyLive = true
		if !p.heardDigest || !p.digestOK {
			return
		}
	}
	if !anyLive {
		return // isolated joiner: stay fail-closed
	}
	n.active = true
	n.m.ready.Store(1)
}
