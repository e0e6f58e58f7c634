package replica

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"p2pbound/internal/bitvec"
	"p2pbound/internal/core"
	"p2pbound/internal/hashes"
	"p2pbound/internal/packet"
)

func testCfg() core.Config {
	return core.Config{K: 4, NBits: 12, M: 3, DeltaT: time.Second}
}

func pairN(i uint32) packet.SocketPair {
	return packet.SocketPair{
		Proto:   packet.TCP,
		SrcAddr: packet.AddrFrom4(140, 112, byte(i>>8), byte(i)),
		SrcPort: uint16(30000 + i%10000),
		DstAddr: packet.AddrFrom4(8, byte(i>>16), byte(i>>8), byte(i)),
		DstPort: uint16(10000 + i%20000),
	}
}

// fabric is a zero-fault, in-order test transport. Frames are copied
// (nodes reuse their encode buffer) and queued, so reentrant replies
// cannot clobber a broadcast in flight.
type fabric struct {
	nodes map[uint32]*Node
	queue []struct {
		to    uint32
		frame []byte
	}
}

func newFabric(nodes ...*Node) *fabric {
	f := &fabric{nodes: make(map[uint32]*Node, len(nodes))}
	for _, n := range nodes {
		f.nodes[n.ID()] = n
	}
	return f
}

func (f *fabric) out(to uint32, frame []byte) {
	f.queue = append(f.queue, struct {
		to    uint32
		frame []byte
	}{to, append([]byte(nil), frame...)})
}

// pump delivers queued frames (including replies to replies) to
// completion and fails the test on any handler error.
func (f *fabric) pump(t *testing.T) {
	t.Helper()
	for len(f.queue) > 0 {
		q := f.queue[0]
		f.queue = f.queue[1:]
		n, ok := f.nodes[q.to]
		if !ok {
			continue
		}
		if err := n.Handle(q.frame, f.out); err != nil {
			t.Fatalf("node %d handle: %v", q.to, err)
		}
	}
}

func vecEqual(a, b *bitvec.Vector) bool {
	if a.DeltaBlocks() != b.DeltaBlocks() {
		return false
	}
	var wa, wb [bitvec.DeltaBlockWords]uint64
	for blk := 0; blk < a.DeltaBlocks(); blk++ {
		if a.BlockWords(uint32(blk), &wa) != nil || b.BlockWords(uint32(blk), &wb) != nil {
			return false
		}
		if wa != wb {
			return false
		}
	}
	return true
}

func filtersEqual(a, b *core.Filter) bool {
	if a.VectorCount() != b.VectorCount() || a.Index() != b.Index() {
		return false
	}
	for v := 0; v < a.VectorCount(); v++ {
		if !vecEqual(a.Vector(v), b.Vector(v)) {
			return false
		}
	}
	return true
}

func twoNodes(t *testing.T) (*core.Filter, *core.Filter, *Node, *Node, *fabric) {
	t.Helper()
	fa, err := core.New(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	fb, err := core.New(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	na, err := NewNode(fa, Config{ID: 1, Peers: []uint32{2}, DigestEvery: 1, SuspectAfter: 4})
	if err != nil {
		t.Fatal(err)
	}
	nb, err := NewNode(fb, Config{ID: 2, Peers: []uint32{1}, DigestEvery: 1, SuspectAfter: 4})
	if err != nil {
		t.Fatal(err)
	}
	return fa, fb, na, nb, newFabric(na, nb)
}

func TestGenAt(t *testing.T) {
	for _, k := range []int{1, 2, 4, 5} {
		for epoch := int64(0); epoch < int64(6*k); epoch++ {
			for v := 0; v < k; v++ {
				// Brute force: the last rotation r ≤ epoch with
				// (r-1) mod k == v, or 0 if none.
				want := int64(0)
				for r := int64(1); r <= epoch; r++ {
					if int((r-1)%int64(k)) == v {
						want = r
					}
				}
				if got := genAt(epoch, v, k); got != want {
					t.Fatalf("genAt(%d, %d, %d) = %d, want %d", epoch, v, k, got, want)
				}
			}
		}
	}
}

func TestFingerprint(t *testing.T) {
	base := Fingerprint(testCfg())
	mut := []func(*core.Config){
		func(c *core.Config) { c.K = 2 },
		func(c *core.Config) { c.NBits = 13 },
		func(c *core.Config) { c.M = 4 },
		func(c *core.Config) { c.DeltaT = 2 * time.Second },
		func(c *core.Config) { c.Layout = hashes.LayoutBlocked },
		func(c *core.Config) { c.HolePunch = true },
	}
	for i, m := range mut {
		c := testCfg()
		m(&c)
		if Fingerprint(c) == base {
			t.Fatalf("mutation %d did not change the fingerprint", i)
		}
	}
	// Operational knobs must not fragment the fleet.
	c := testCfg()
	c.Seed = 99
	c.ReorderTolerance = time.Second
	if Fingerprint(c) != base {
		t.Fatal("seed/tolerance changed the fingerprint")
	}
	// The zero scheme and layout resolve to their explicit defaults.
	c = testCfg()
	c.HashScheme, c.Layout = hashes.SchemePerIndex, hashes.LayoutClassic
	if Fingerprint(c) != base {
		t.Fatal("explicit default scheme/layout fingerprint differs from zero values")
	}
}

// TestFingerprintGolden pins fleet fingerprints across releases: nodes
// of different builds merge state only while these values hold.
func TestFingerprintGolden(t *testing.T) {
	base := core.Config{K: 4, NBits: 20, M: 3, DeltaT: 5 * time.Second}
	blocked := base
	blocked.NBits, blocked.Layout = 26, hashes.LayoutBlocked
	blockedHP := base
	blockedHP.Layout, blockedHP.HolePunch = hashes.LayoutBlocked, true
	for _, tc := range []struct {
		name string
		cfg  core.Config
		want uint64
	}{
		{"paper", base, 0xcef2e8db264c813f},
		{"blocked-2^26", blocked, 0xd157445e825603c1},
		{"blocked-holepunch", blockedHP, 0xd84e8e5e710864fe},
	} {
		if got := Fingerprint(tc.cfg); got != tc.want {
			t.Errorf("%s: fingerprint %016x, want %016x", tc.name, got, tc.want)
		}
	}
}

func TestTwoNodeDeltaSyncConverges(t *testing.T) {
	fa, fb, na, nb, fab := twoNodes(t)
	for i := uint32(0); i < 200; i++ {
		fa.Mark(pairN(i))
	}
	for i := uint32(500); i < 600; i++ {
		fb.Mark(pairN(i))
	}
	for round := 0; round < 3; round++ {
		na.Tick(fab.out)
		nb.Tick(fab.out)
		fab.pump(t)
	}
	if !filtersEqual(fa, fb) {
		t.Fatal("filters did not converge to the union")
	}
	for i := uint32(0); i < 200; i++ {
		if !fb.Contains(pairN(i).Inverse()) {
			t.Fatalf("flow %d marked on A is a false negative on B", i)
		}
	}
	for i := uint32(500); i < 600; i++ {
		if !fa.Contains(pairN(i).Inverse()) {
			t.Fatalf("flow %d marked on B is a false negative on A", i)
		}
	}
	if !na.Ready() || !nb.Ready() {
		t.Fatal("converged nodes not Ready")
	}
	m := na.Metrics()
	if m.DeltaFramesSent == 0 || m.DeltaBlocksMerged == 0 {
		t.Fatalf("missing delta telemetry: %+v", m)
	}
}

// TestSteadyStateQuiesces: once every delta is acked and folded, a
// tick with no new marks sends no delta frames.
func TestSteadyStateQuiesces(t *testing.T) {
	fa, _, na, nb, fab := twoNodes(t)
	for i := uint32(0); i < 50; i++ {
		fa.Mark(pairN(i))
	}
	for round := 0; round < 4; round++ {
		na.Tick(fab.out)
		nb.Tick(fab.out)
		fab.pump(t)
	}
	before := na.Metrics().DeltaFramesSent + nb.Metrics().DeltaFramesSent
	na.Tick(fab.out)
	nb.Tick(fab.out)
	fab.pump(t)
	after := na.Metrics().DeltaFramesSent + nb.Metrics().DeltaFramesSent
	if after != before {
		t.Fatalf("steady state still sent %d delta frames", after-before)
	}
}

func TestCorruptFrameLeavesStateUntouched(t *testing.T) {
	fa, fb, na, nb, fab := twoNodes(t)
	for i := uint32(0); i < 50; i++ {
		fa.Mark(pairN(i))
	}
	// Capture a valid delta frame off the wire.
	na.Tick(fab.out)
	var delta []byte
	for _, q := range fab.queue {
		if fr, err := DecodeFrame(q.frame); err == nil && fr.Type == FrameDelta {
			delta = q.frame
		}
	}
	if delta == nil {
		t.Fatal("no delta frame captured")
	}
	snap := func() []byte {
		var buf bytes.Buffer
		if _, err := fb.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	before := snap()
	rejected := nb.Metrics().FramesRejected
	for i := range delta {
		bad := append([]byte(nil), delta...)
		bad[i] ^= 0x10
		if err := nb.Handle(bad, fab.out); err == nil {
			// A flip in the CRC-covered region that still decodes can
			// only be... nothing: every byte is covered.
			t.Fatalf("corrupt frame (byte %d) accepted", i)
		}
	}
	if got := nb.Metrics().FramesRejected; got != rejected+int64(len(delta)) {
		t.Fatalf("FramesRejected = %d, want %d", got, rejected+int64(len(delta)))
	}
	if !bytes.Equal(before, snap()) {
		t.Fatal("corrupt frames mutated filter state")
	}
}

func TestGeometryMismatchRejected(t *testing.T) {
	_, _, _, nb, fab := twoNodes(t)
	frame := EncodeHello(nil, 1, 0, Fingerprint(testCfg())+1)
	if err := nb.Handle(frame, fab.out); !errors.Is(err, ErrGeometry) {
		t.Fatalf("got %v, want ErrGeometry", err)
	}
	ownID := EncodeHello(nil, 2, 0, Fingerprint(testCfg()))
	if err := nb.Handle(ownID, fab.out); !errors.Is(err, ErrGeometry) {
		t.Fatalf("own-ID frame: got %v, want ErrGeometry", err)
	}
}

// TestStaleSectionSkipped: a delta from an older epoch whose vector
// generation changed is acknowledged but not merged.
func TestStaleSectionSkipped(t *testing.T) {
	fa, fb, na, nb, fab := twoNodes(t)
	_ = fa
	fb.AlignRotations(5)
	// Sender epoch 1: vector 0's generation there (1) differs from its
	// generation at epoch 5 on the receiver.
	sec := []VectorSection{{Vec: 0, Blocks: []BlockPatch{{Blk: 0, Words: [8]uint64{1}}}}}
	frame := EncodeSections(nil, FrameDelta, na.ID(), 1, Fingerprint(testCfg()), 9, sec)
	if err := nb.Handle(frame, fab.out); err != nil {
		t.Fatal(err)
	}
	m := nb.Metrics()
	if m.StaleSections != 1 || m.DeltaBlocksMerged != 0 {
		t.Fatalf("stale=%d merged=%d, want 1, 0", m.StaleSections, m.DeltaBlocksMerged)
	}
	var w [bitvec.DeltaBlockWords]uint64
	if err := fb.Vector(0).BlockWords(0, &w); err != nil || w[0] != 0 {
		t.Fatalf("stale section leaked into the vector: %v %v", w, err)
	}
}

// TestBadBlockRejectsWholeFrame: a frame mixing a valid patch with an
// out-of-range one must apply neither.
func TestBadBlockRejectsWholeFrame(t *testing.T) {
	_, fb, na, nb, fab := twoNodes(t)
	good := BlockPatch{Blk: 0, Words: [8]uint64{1}}
	bad := BlockPatch{Blk: 1 << 20, Words: [8]uint64{1}}
	sec := []VectorSection{{Vec: 0, Blocks: []BlockPatch{good, bad}}}
	frame := EncodeSections(nil, FrameDelta, na.ID(), 0, Fingerprint(testCfg()), 1, sec)
	if err := nb.Handle(frame, fab.out); !errors.Is(err, ErrGeometry) {
		t.Fatalf("got %v, want ErrGeometry", err)
	}
	var w [bitvec.DeltaBlockWords]uint64
	if err := fb.Vector(0).BlockWords(0, &w); err != nil || w[0] != 0 {
		t.Fatal("rejected frame partially applied")
	}
	if len(fab.queue) != 0 {
		t.Fatal("rejected delta was acked")
	}
}

// TestEpochFastForward: a frame from a newer epoch fast-forwards the
// receiver's rotation count — fail-closed, clearing overdue vectors.
func TestEpochFastForward(t *testing.T) {
	fa, _, na, nb, fab := twoNodes(t)
	fa.Mark(pairN(1))
	if !fa.Contains(pairN(1).Inverse()) {
		t.Fatal("mark not visible")
	}
	frame := EncodeHello(nil, nb.ID(), 7, Fingerprint(testCfg()))
	if err := na.Handle(frame, fab.out); err != nil {
		t.Fatal(err)
	}
	if got := fa.Rotations(); got != 7 {
		t.Fatalf("Rotations() = %d, want 7", got)
	}
	if fa.Contains(pairN(1).Inverse()) {
		t.Fatal("fast-forward kept bits from wiped generations")
	}
	if na.Metrics().SyncLagEpochs != 7 {
		t.Fatalf("SyncLagEpochs = %d, want 7", na.Metrics().SyncLagEpochs)
	}
}

// TestDigestRepairHeals: blow away one node's vector contents behind
// the sync protocol's back (via a fresh filter) and prove the digest
// exchange repairs it without a full snapshot.
func TestDigestRepairHeals(t *testing.T) {
	fa, fb, na, nb, fab := twoNodes(t)
	for i := uint32(0); i < 100; i++ {
		fa.Mark(pairN(i))
	}
	for round := 0; round < 3; round++ {
		na.Tick(fab.out)
		nb.Tick(fab.out)
		fab.pump(t)
	}
	if !filtersEqual(fa, fb) {
		t.Fatal("setup: no initial convergence")
	}
	// Divergence: B loses its state (fresh filter, fresh node — a crash
	// without a snapshot). The rejoining node must not be Ready until a
	// digest round completes, then must recover every bit from repair.
	fb2, err := core.New(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	nb2, err := NewNode(fb2, Config{ID: 2, Peers: []uint32{1}})
	if err != nil {
		t.Fatal(err)
	}
	if nb2.Ready() {
		t.Fatal("rejoined node Ready before any digest round")
	}
	fab2 := newFabric(na, nb2)
	for round := 0; round < 4; round++ {
		na.Tick(fab2.out)
		nb2.Tick(fab2.out)
		fab2.pump(t)
	}
	if !filtersEqual(fa, fb2) {
		t.Fatal("anti-entropy did not heal the wiped node")
	}
	if !nb2.Ready() {
		t.Fatal("healed node still not Ready")
	}
	if nb2.Metrics().RepairBlocksMerged == 0 && nb2.Metrics().DeltaBlocksMerged == 0 {
		t.Fatal("healing happened without repair or delta traffic?")
	}
	if na.Metrics().DigestMismatchRanges == 0 {
		t.Fatal("divergence never detected by digests")
	}
}

func TestSingleNodeFleetReadyImmediately(t *testing.T) {
	f, err := core.New(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(f, Config{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !n.Ready() {
		t.Fatal("fleet of one not Ready")
	}
	n.Tick(func(uint32, []byte) { t.Fatal("fleet of one sent a frame") })
}

func TestNewNodeRejectsSelfPeer(t *testing.T) {
	f, err := core.New(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNode(f, Config{ID: 1, Peers: []uint32{1}}); err == nil {
		t.Fatal("self-peer config accepted")
	}
}

// TestNewNodeAlignsRestoredIndex: a snapshot restore resets the
// rotation count but keeps the vector index; attaching a node must
// re-establish idx ≡ rotations (mod k) by rotating forward.
func TestNewNodeAlignsRestoredIndex(t *testing.T) {
	src, err := core.New(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	src.Rotate()
	src.Rotate()
	src.Rotate()
	var buf bytes.Buffer
	if _, err := src.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := core.ReadFilter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Index() != 3 || f.Rotations() != 0 {
		t.Fatalf("restore gave idx=%d rotations=%d", f.Index(), f.Rotations())
	}
	if _, err := NewNode(f, Config{ID: 1, Peers: []uint32{2}}); err != nil {
		t.Fatal(err)
	}
	if got := f.Index() % f.VectorCount(); int64(got) != f.Rotations()%int64(f.VectorCount()) {
		t.Fatalf("idx %d not congruent to rotations %d", f.Index(), f.Rotations())
	}
}

// TestSuspectPeerDoesNotWedgeFold: a dead peer must not keep the
// pending delta open forever.
func TestSuspectPeerDoesNotWedgeFold(t *testing.T) {
	fa, _, na, _, _ := twoNodes(t)
	fa.Mark(pairN(1))
	sink := func(uint32, []byte) {}
	// Peer 2 never responds; after SuspectAfter ticks it is excluded
	// and the pending delta folds, so ticks go quiet.
	for i := 0; i < 3*4+2; i++ {
		na.Tick(sink)
	}
	before := na.Metrics().DeltaFramesSent
	na.Tick(sink)
	if got := na.Metrics().DeltaFramesSent; got != before {
		t.Fatalf("suspect peer still forcing delta retransmits (%d → %d)", before, got)
	}
	if na.Ready() {
		t.Fatal("node with no live peers became Ready")
	}
}
