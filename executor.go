package p2pbound

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"p2pbound/internal/metrics"
)

// shardBackend is what a front end (Pipeline, TenantPipeline) supplies
// to the sharded executor. route and routeChunk run on producer
// goroutines; decide and idle run only on shard sh's worker goroutine,
// so they may touch that shard's single-writer state without locks.
// The executor carries packets as records: Submit, TrySubmit and
// SubmitBatch convert each public Packet once, and rings, staging
// buffers and worker batches hold the 32-byte form.
type shardBackend interface {
	// route returns the index of the shard whose ring r joins. It takes
	// the record by value: a pointer passed through an interface call
	// escapes, which would cost Submit a heap allocation.
	route(r record) int
	// routeChunk sets shards[i] to route(recs[i]). SubmitBatch calls it
	// once per chunk: an interface dispatch and a by-value copy per
	// packet measurably slowed its routing loop.
	routeChunk(recs []record, shards []int)
	// decide decides one batch on shard sh, appending one verdict per
	// packet to dst.
	decide(sh int, batch []record, dst []Decision) []Decision
	// idle runs each time shard sh's ring runs dry, and once more with
	// final set when the worker exits on a drained ring.
	idle(sh int, final bool)
}

// executor is the concurrent engine behind Pipeline and TenantPipeline:
// one worker goroutine per shard, each fed by a fixed-capacity
// single-consumer ring. Producers route each packet to a ring once, at
// submit time; the shard's worker drains its ring in batches through
// the backend's decider. Per-shard packet order follows arrival order,
// so concurrency changes scheduling, never decisions.
type executor struct {
	be      shardBackend
	rings   []*ring
	batch   int
	scratch sync.Pool // *routeScratch
	wg      sync.WaitGroup
	closed  atomic.Bool //p2p:atomic
	policy  ShedPolicy
	gate    <-chan struct{}

	// Verdict and shed counters are striped per shard (cache-line-padded
	// atomic cells), so concurrent shard workers never contend on a
	// counter cache line. Shed counts packets a full ring turned away by
	// policy; they were never decided and appear in no decider counter.
	passed      *metrics.Counter
	dropped     *metrics.Counter
	shedPassed  *metrics.Counter
	shedDropped *metrics.Counter
}

// start builds the rings and counters, attaches the counters to tel
// when it is non-nil, and launches one worker per shard. A zero ring
// size selects 2048 and a non-positive batch size 256; the ring size is
// rounded up to a power of two so indices wrap with a mask. A non-nil
// gate holds every worker until it is closed (chaos tests use it to
// saturate the rings deterministically; it must be closed before
// Close).
func (e *executor) start(be shardBackend, shards, ringSize, batchSize int, policy ShedPolicy, gate <-chan struct{}, tel *Telemetry) {
	if ringSize == 0 {
		ringSize = 2048
	}
	if ringSize < 2 {
		ringSize = 2
	}
	for ringSize&(ringSize-1) != 0 {
		ringSize += ringSize & -ringSize
	}
	if batchSize <= 0 {
		batchSize = 256
	}
	e.be = be
	e.rings = make([]*ring, shards)
	for i := range e.rings {
		e.rings[i] = newRing(ringSize)
	}
	e.batch = batchSize
	e.policy = policy
	e.gate = gate
	e.passed = metrics.NewCounter(shards)
	e.dropped = metrics.NewCounter(shards)
	e.shedPassed = metrics.NewCounter(shards)
	e.shedDropped = metrics.NewCounter(shards)
	e.scratch.New = func() any {
		sc := &routeScratch{byShard: make([][]record, shards)}
		for i := range sc.byShard {
			sc.byShard[i] = make([]record, 0, submitChunk)
		}
		return sc
	}
	if tel != nil {
		tel.attachPipeline(e)
	}
	e.wg.Add(shards)
	for i := 0; i < shards; i++ {
		go e.worker(i)
	}
}

// Submit routes one packet to its shard ring. Under the default
// ShedBlock policy it blocks while the ring is full; under ShedFailOpen
// or ShedFailClosed a packet arriving at a full ring is shed by policy
// and counted instead of enqueued. It must not be called after Close.
func (e *executor) Submit(pkt Packet) {
	if e.closed.Load() {
		panic("p2pbound: Submit on closed pipeline")
	}
	var rec record
	rec.fromPublic(&pkt)
	sh := e.be.route(rec)
	r := e.rings[sh]
	if e.policy == ShedBlock {
		r.mu.Lock()
		r.push(rec)
		r.mu.Unlock()
		return
	}
	r.mu.Lock()
	ok := r.tryPush(rec)
	r.mu.Unlock()
	if !ok {
		e.shed(sh, 1)
	}
}

// TrySubmit attempts a non-blocking enqueue, regardless of the shed
// policy. It reports false when the shard ring is full, in which case
// the packet was not taken and nothing was counted — the caller owns the
// overflow decision (retry, spill to a secondary queue, apply its own
// verdict). It must not be called after Close.
func (e *executor) TrySubmit(pkt Packet) bool {
	if e.closed.Load() {
		panic("p2pbound: TrySubmit on closed pipeline")
	}
	var rec record
	rec.fromPublic(&pkt)
	r := e.rings[e.be.route(rec)]
	r.mu.Lock()
	ok := r.tryPush(rec)
	r.mu.Unlock()
	return ok
}

// shed records n packets bound for shard sh turned away by the overload
// policy.
func (e *executor) shed(sh, n int) {
	if n <= 0 {
		return
	}
	if e.policy == ShedFailOpen {
		e.shedPassed.Add(sh, int64(n))
	} else {
		e.shedDropped.Add(sh, int64(n))
	}
}

// submitChunk is the slice SubmitBatch routes before publishing it to
// the shard rings. Small enough that the workers decide one slice while
// the producer routes the next, large enough that a shard's group still
// amortizes its lock and cursor store over a few hundred packets.
const submitChunk = 512

// SubmitBatch routes a slice of packets. Instead of locking a ring per
// packet it converts and classifies a chunk into per-shard staging
// buffers and then publishes each shard's group with one lock
// acquisition and one ring cursor update — the amortization that lets a
// single producer outrun several shard workers. Each chunk is published
// before the next is routed, so routing overlaps deciding. Packets must
// be in non-decreasing timestamp order (per producer, as with Submit).
// Under a non-blocking shed policy, packets that do not fit a full
// shard ring are shed by policy and counted instead of enqueued. It
// must not be called after Close.
func (e *executor) SubmitBatch(pkts []Packet) {
	if e.closed.Load() {
		panic("p2pbound: SubmitBatch on closed pipeline")
	}
	sc := e.scratch.Get().(*routeScratch)
	for len(pkts) > 0 {
		n := min(len(pkts), submitChunk)
		for i := range pkts[:n] {
			sc.recs[i].fromPublic(&pkts[i])
		}
		e.dispatch(sc, sc.recs[:n])
		pkts = pkts[n:]
	}
	e.scratch.Put(sc)
}

// submitRecords is SubmitBatch for packets already in record form, the
// ingest paths' output.
func (e *executor) submitRecords(recs []record) {
	if e.closed.Load() {
		panic("p2pbound: SubmitBatch on closed pipeline")
	}
	sc := e.scratch.Get().(*routeScratch)
	for len(recs) > 0 {
		n := min(len(recs), submitChunk)
		e.dispatch(sc, recs[:n])
		recs = recs[n:]
	}
	e.scratch.Put(sc)
}

// dispatch routes one chunk of at most submitChunk records into sc's
// per-shard staging buffers and publishes each shard's group to its
// ring.
func (e *executor) dispatch(sc *routeScratch, chunk []record) {
	for i := range sc.byShard {
		sc.byShard[i] = sc.byShard[i][:0]
	}
	shards := sc.shards[:len(chunk)]
	e.be.routeChunk(chunk, shards)
	for i, sh := range shards {
		sc.byShard[sh] = append(sc.byShard[sh], chunk[i])
	}
	for sh, group := range sc.byShard {
		if len(group) == 0 {
			continue
		}
		r := e.rings[sh]
		r.mu.Lock()
		if e.policy == ShedBlock {
			r.pushAll(group)
			r.mu.Unlock()
			continue
		}
		accepted := r.tryPushAll(group)
		r.mu.Unlock()
		e.shed(sh, len(group)-accepted)
	}
}

// routeScratch is the reusable per-SubmitBatch staging area, pooled so
// steady-state batch submission does not allocate.
type routeScratch struct {
	recs    [submitChunk]record // SubmitBatch's converted chunk
	shards  [submitChunk]int    // routeChunk's output for the chunk
	byShard [][]record
}

// Drain blocks until every packet submitted before the call has been
// decided. Concurrent Submits are allowed; packets submitted while Drain
// is waiting may or may not be covered. Concurrent Drains are allowed
// too: each returns once the packets submitted before its own call are
// decided. Drain sleeps on each ring's done condition rather than
// polling; the worker broadcasts it while a Drain is registered.
func (e *executor) Drain() {
	for _, r := range e.rings {
		target := r.tail.Load()
		if r.done.Load() >= target {
			continue
		}
		r.doneMu.Lock()
		// Registering before the re-check pairs with the worker's
		// done store before its waiters load: either this load sees
		// the worker's progress, or the worker sees the waiter and
		// broadcasts under doneMu, which it cannot take until Wait
		// has released it.
		r.waiters.Add(1)
		for r.done.Load() < target {
			r.doneCond.Wait()
		}
		r.waiters.Add(-1)
		r.doneMu.Unlock()
	}
}

// Close drains the rings, stops every worker, and waits for them to
// exit. No Submit or SubmitBatch may be issued after (or concurrently
// with) Close. Close is idempotent.
func (e *executor) Close() {
	e.closed.Store(true)
	for _, r := range e.rings {
		r.wakeParked()
	}
	e.wg.Wait()
}

// Verdicts returns the number of passed and dropped packets decided so
// far. Shed packets were never decided and are reported separately by
// Shed. It is safe to call at any time, including concurrently with
// submission.
func (e *executor) Verdicts() (passed, dropped int64) {
	return e.passed.Value(), e.dropped.Value()
}

// Shed returns the number of packets turned away undecided by the
// overload policy: fail-open sheds count as passed, fail-closed sheds as
// dropped. Both are zero under ShedBlock. Safe to call at any time.
func (e *executor) Shed() (passed, dropped int64) {
	return e.shedPassed.Value(), e.shedDropped.Value()
}

// worker owns shard sh: it drains the shard ring in batches, decides
// them through the backend, publishes verdict counts, and whenever the
// ring runs dry runs the backend's idle hook and parks until a producer
// or Close wakes it. The `done` cursor advances only after the batch is
// decided, which is what Drain synchronizes on.
//
//p2p:confined pipeworker
func (e *executor) worker(sh int) {
	defer e.wg.Done()
	if e.gate != nil {
		<-e.gate
	}
	r := e.rings[sh]
	batch := make([]record, 0, e.batch)
	verdicts := make([]Decision, 0, e.batch)
	for {
		batch = r.take(batch[:0], e.batch)
		if len(batch) == 0 {
			if e.closed.Load() {
				// Re-check after observing closed: any Submit that
				// returned before Close is visible to this take.
				if batch = r.take(batch[:0], e.batch); len(batch) == 0 {
					e.be.idle(sh, true)
					return
				}
			} else {
				e.be.idle(sh, false)
				e.park(r)
				continue
			}
		}
		verdicts = e.be.decide(sh, batch, verdicts[:0])
		var pass, drop int64
		for _, v := range verdicts {
			if v == Pass {
				pass++
			} else {
				drop++
			}
		}
		e.passed.Add(sh, pass)
		e.dropped.Add(sh, drop)
		r.done.Add(uint64(len(batch)))
		if r.waiters.Load() > 0 {
			r.doneMu.Lock()
			r.doneCond.Broadcast()
			r.doneMu.Unlock()
		}
	}
}

// park blocks r's worker until a producer publishes to the ring or
// Close runs. Setting sleeping before re-checking the cursors pairs with
// a waker's store before its sleeping load (wakeParked): either the
// re-check sees the new packets or closed, or the waker sees the flag.
// Whoever clears sleeping owns the park's one wake token, so a worker
// that finds work but loses that race still takes the token, and none
// outlives its park.
//
//p2p:confined pipeworker
func (e *executor) park(r *ring) {
	r.sleeping.Store(true)
	if r.tail.Load() != r.head.Load() || e.closed.Load() {
		if r.sleeping.CompareAndSwap(true, false) {
			return
		}
	}
	<-r.wake
}

// ring is a fixed-capacity single-consumer packet queue. The consumer
// side is lock-free; the producer side is serialized by mu (uncontended
// in the common single-producer deployment). tail is the next slot to
// write, head the next to read, done the count of decided packets.
//
// An idle consumer parks on wake (capacity 1) with sleeping set, and
// every tail store is followed by wakeParked; Drain callers register in
// waiters and sleep on doneCond, which the consumer broadcasts after
// advancing done.
type ring struct {
	buf  []record
	mask uint64
	mu   sync.Mutex

	wake     chan struct{}
	sleeping atomic.Bool //p2p:atomic
	doneMu   sync.Mutex
	doneCond sync.Cond
	waiters  atomic.Int32 //p2p:atomic

	// The three cursors live on separate cache lines so the producer's
	// tail stores do not false-share with the consumer's head/done.
	tail atomic.Uint64 //p2p:atomic
	_    [7]uint64
	head atomic.Uint64 //p2p:atomic
	_    [7]uint64
	done atomic.Uint64 //p2p:atomic
}

func newRing(size int) *ring {
	r := &ring{
		buf:  make([]record, size),
		mask: uint64(size - 1),
		wake: make(chan struct{}, 1),
	}
	r.doneCond.L = &r.doneMu
	return r
}

// wakeParked wakes the consumer if it is parked. The caller whose
// CompareAndSwap clears sleeping owns the park's token, and the channel
// is empty until that token is sent, so the send never falls through to
// default: the select only states that it cannot block. Producers call
// it under r.mu after every tail store.
func (r *ring) wakeParked() {
	if r.sleeping.Load() && r.sleeping.CompareAndSwap(true, false) {
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
}

// publish stores the tail cursor and wakes a parked consumer. Callers
// hold r.mu.
func (r *ring) publish(t uint64) {
	r.tail.Store(t)
	r.wakeParked()
}

// push appends one packet, waiting while the ring is full. Callers hold
// r.mu.
func (r *ring) push(p record) {
	t := r.tail.Load()
	for spin := 0; t-r.head.Load() >= uint64(len(r.buf)); spin++ {
		idleWait(spin)
	}
	r.buf[t&r.mask] = p
	r.publish(t + 1)
}

// tryPush appends one packet if the ring has a free slot, reporting
// whether it did. Callers hold r.mu.
func (r *ring) tryPush(p record) bool {
	t := r.tail.Load()
	if t-r.head.Load() >= uint64(len(r.buf)) {
		return false
	}
	r.buf[t&r.mask] = p
	r.publish(t + 1)
	return true
}

// tryPushAll appends as much of the group as fits without waiting and
// returns the count accepted; the caller sheds the remainder. Callers
// hold r.mu.
func (r *ring) tryPushAll(pkts []record) int {
	t := r.tail.Load()
	free := uint64(len(r.buf)) - (t - r.head.Load())
	n := uint64(len(pkts))
	if n > free {
		n = free
	}
	for i := uint64(0); i < n; i++ {
		r.buf[(t+i)&r.mask] = pkts[i]
	}
	if n > 0 {
		r.publish(t + n)
	}
	return int(n)
}

// pushAll appends a group of packets, publishing the tail cursor once
// per contiguous free span instead of once per packet. When the group
// exceeds the free space it publishes what fits, waking the consumer,
// and waits for it, so oversized groups drain incrementally rather than
// deadlocking. Callers hold r.mu.
func (r *ring) pushAll(pkts []record) {
	t := r.tail.Load()
	for len(pkts) > 0 {
		free := uint64(len(r.buf)) - (t - r.head.Load())
		for spin := 0; free == 0; spin++ {
			idleWait(spin)
			free = uint64(len(r.buf)) - (t - r.head.Load())
		}
		n := uint64(len(pkts))
		if n > free {
			n = free
		}
		for i := uint64(0); i < n; i++ {
			r.buf[(t+i)&r.mask] = pkts[i]
		}
		t += n
		r.publish(t)
		pkts = pkts[n:]
	}
}

// take moves up to max available packets into dst. Only the consumer
// goroutine (a shard worker) may call it. Slots are released (head
// advanced) as soon as the packets are copied out; completion is
// published separately via done.
//
//p2p:confined pipeworker
func (r *ring) take(dst []record, max int) []record {
	h := r.head.Load()
	avail := r.tail.Load() - h
	if avail == 0 {
		return dst
	}
	if avail > uint64(max) {
		avail = uint64(max)
	}
	// The span wraps the ring at most once, so two bulk copies replace
	// the per-packet masked loop — memmove keeps the drain cost per
	// packet flat as BatchSize grows.
	lo := h & r.mask
	n := uint64(len(r.buf)) - lo
	if n > avail {
		n = avail
	}
	dst = append(dst, r.buf[lo:lo+n]...)
	dst = append(dst, r.buf[:avail-n]...)
	r.head.Store(h + avail)
	return dst
}

// idleWait is a producer's backoff while its shard ring is full: yield
// the processor for a while, then sleep briefly. The wait runs under
// r.mu, so it stays bounded and never parks; the consumer it waits on
// is awake, because every published packet signalled it.
func idleWait(spin int) {
	if spin < 128 {
		runtime.Gosched()
		return
	}
	time.Sleep(20 * time.Microsecond)
}
