package netsim

import (
	"math/rand/v2"
	"sync"

	"p2pbound/internal/faultinject"
)

// LinkConfig parameterizes the frame-level fault model of a Mesh.
type LinkConfig struct {
	// LossProb drops each frame independently with this probability.
	LossProb float64
	// DupProb enqueues each delivered frame twice with this
	// probability — a retransmit or a mirrored tap.
	DupProb float64
	// ReorderWindow bounds the shuffle applied to each destination's
	// queue at delivery time: a frame ends up strictly less than this
	// many positions from where it arrived. ≤1 preserves order.
	ReorderWindow int
	// Partitions, when non-nil, cuts links per its round schedule; the
	// caller advances rounds with NextRound.
	Partitions *faultinject.PartitionSchedule
	// Seed drives loss, duplication, and reorder draws.
	Seed uint64
}

// Mesh is a deterministic N-node frame fabric for replication chaos
// tests: unicast with per-frame loss, duplication, bounded reorder,
// and a partition schedule, all seeded. Frames are copied on Send, so
// senders may reuse their encode buffer. Methods are mutex-guarded so
// replicas may run on their own goroutines; determinism holds whenever
// the send order is deterministic (a single driving goroutine, or
// barriers between rounds).
type Mesh struct {
	mu    sync.Mutex
	n     int
	cfg   LinkConfig
	rng   *rand.Rand
	round int
	queue [][][]byte // per destination

	sent, delivered, dropped, duplicated int64
}

// NewMesh builds a fabric connecting nodes 0..nodes-1.
func NewMesh(nodes int, cfg LinkConfig) *Mesh {
	return &Mesh{
		n:     nodes,
		cfg:   cfg,
		rng:   rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xa0761d6478bd642f)),
		queue: make([][][]byte, nodes),
	}
}

// Send queues one frame from node `from` to node `to`, subject to the
// partition schedule, loss, and duplication. Out-of-range destinations
// are dropped silently, like any misrouted datagram.
func (m *Mesh) Send(from, to int, frame []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sent++
	if to < 0 || to >= m.n || from == to {
		m.dropped++
		return
	}
	if p := m.cfg.Partitions; p != nil && p.Blocked(m.round, from, to) {
		m.dropped++
		return
	}
	if m.cfg.LossProb > 0 && m.rng.Float64() < m.cfg.LossProb {
		m.dropped++
		return
	}
	cp := append([]byte(nil), frame...)
	m.queue[to] = append(m.queue[to], cp)
	if m.cfg.DupProb > 0 && m.rng.Float64() < m.cfg.DupProb {
		m.queue[to] = append(m.queue[to], cp) // same backing bytes: receivers must not mutate
		m.duplicated++
	}
}

// Deliver drains every frame queued for node `to`, applying the
// bounded reorder, and hands each to fn. Frames sent while fn runs are
// not delivered in this call (fn runs outside the lock, so a handler
// may Send replies through the same mesh).
func (m *Mesh) Deliver(to int, fn func(frame []byte)) {
	m.mu.Lock()
	if to < 0 || to >= m.n || len(m.queue[to]) == 0 {
		m.mu.Unlock()
		return
	}
	pending := m.queue[to]
	m.queue[to] = nil
	if m.cfg.ReorderWindow > 1 {
		faultinject.Reorder(pending, m.cfg.ReorderWindow, m.rng.Uint64())
	}
	m.delivered += int64(len(pending))
	m.mu.Unlock()
	for _, f := range pending {
		fn(f)
	}
}

// NextRound advances the partition schedule's round counter.
func (m *Mesh) NextRound() {
	m.mu.Lock()
	m.round++
	m.mu.Unlock()
}

// Counters reports lifetime frame accounting: sent includes dropped;
// delivered counts frames handed to Deliver callbacks (duplicates
// included once queued).
func (m *Mesh) Counters() (sent, delivered, dropped, duplicated int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sent, m.delivered, m.dropped, m.duplicated
}
