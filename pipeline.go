package p2pbound

import (
	"fmt"
	"runtime"

	"p2pbound/internal/offload"
	"p2pbound/internal/packet"
)

// ShedPolicy selects what a saturated Pipeline does with a packet whose
// shard ring is full. Whatever the choice, the capture loop never
// stalls indefinitely behind a slow shard by accident: overload
// degrades by explicit policy.
type ShedPolicy int

const (
	// ShedBlock applies backpressure: Submit and SubmitBatch block until
	// the shard worker frees a slot. The default — lossless, but a
	// saturated shard transfers its stall to the producer.
	ShedBlock ShedPolicy = iota
	// ShedFailOpen passes overflow packets undecided: the shed packet is
	// treated as admitted and counted in Stats.ShedPassed. The safe
	// choice when dropping legitimate traffic is worse than briefly
	// under-enforcing the P2P bound.
	ShedFailOpen
	// ShedFailClosed drops overflow packets: the shed packet is treated
	// as denied and counted in Stats.ShedDropped. The safe choice when
	// an attacker could saturate the pipeline to smuggle traffic past
	// the filter.
	ShedFailClosed
)

// String names the policy.
func (s ShedPolicy) String() string {
	switch s {
	case ShedBlock:
		return "block"
	case ShedFailOpen:
		return "fail-open"
	case ShedFailClosed:
		return "fail-closed"
	default:
		return fmt.Sprintf("shedpolicy(%d)", int(s))
	}
}

// PipelineConfig parameterizes a Pipeline. The zero value of every field
// selects a sensible default.
type PipelineConfig struct {
	// Shards is the number of independent Limiter shards, each owned by
	// one worker goroutine. Default: GOMAXPROCS.
	Shards int
	// RingSize is the per-shard ring-buffer capacity in packets,
	// rounded up to a power of two. Default 2048. A full ring exerts
	// backpressure: Submit blocks until the shard worker frees a slot.
	RingSize int
	// BatchSize is the maximum number of packets a shard worker drains
	// and decides per wakeup. Default 256.
	BatchSize int
	// OnOverload selects the shed policy for packets arriving at a full
	// shard ring. Default ShedBlock (backpressure).
	OnOverload ShedPolicy

	// OffloadEvery, when positive, allocates a kernel-offload flat map
	// (one section per shard — see OffloadMap) and has each shard worker
	// republish its section after every OffloadEvery batches, so the
	// exported verdict map lags the live filters by a bounded number of
	// batches. Zero disables the offload tier.
	OffloadEvery int

	// testGate, when non-nil, holds every shard worker at startup until
	// the channel is closed. Chaos tests use it to saturate the rings
	// deterministically; it must be closed before Close is called.
	testGate <-chan struct{}
}

// Pipeline is the concurrent driver for a ShardedLimiter: the sharded
// executor with one worker goroutine per shard, each fed by a
// fixed-capacity single-consumer ring buffer. Producers route packets
// to their shard ring by ShardedLimiter.ShardOf (both directions of a
// connection always reach the same shard, so per-shard decisions are
// identical to running that shard's Limiter sequentially); workers
// drain their ring in batches through the chunks and decisions of
// Limiter.ProcessBatch.
//
// Multiple goroutines may Submit/SubmitBatch concurrently — the producer
// side of each ring is mutex-serialized — but per-shard packet order
// then follows arrival order, so keeping each flow's packets on one
// producer preserves its timestamp order. Verdict counts are exactly
// those of feeding the same per-shard sequences through ShardedLimiter
// sequentially; concurrency changes scheduling, never decisions.
//
// Decisions are asynchronous. Callers that need per-packet verdicts use
// the Limiter or ShardedLimiter directly; the Pipeline is the shape for
// bulk replay and for deployments where the verdict is applied by the
// shard worker itself (e.g. one NIC queue per shard).
type Pipeline struct {
	executor
	sharded *ShardedLimiter
	// clientNet is the parsed ClientNetwork, kept so the pcap ingestion
	// entry points can classify packet direction at decode time.
	clientNet packet.Network

	// offloadMap, when non-nil, is the flat verdict map the shard
	// workers publish into every offloadEvery batches (section index ==
	// shard index). Readers attach via OffloadMap at any time.
	// sinceOffload[sh] counts shard sh's batches since its last publish
	// and is touched only by that shard's worker.
	offloadMap   *offload.Map
	offloadEvery int
	sinceOffload []int
}

// NewPipeline builds the sharded limiter and starts one worker per
// shard. Close must be called to stop the workers.
func NewPipeline(cfg Config, pcfg PipelineConfig) (*Pipeline, error) {
	shards := pcfg.Shards
	if shards == 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	sharded, err := NewSharded(cfg, shards)
	if err != nil {
		return nil, err
	}
	clientNet, err := packet.ParseNetwork(cfg.ClientNetwork)
	if err != nil {
		return nil, fmt.Errorf("p2pbound: %w", err)
	}
	p := &Pipeline{sharded: sharded, clientNet: clientNet}
	if pcfg.OffloadEvery > 0 {
		om, err := sharded.NewOffloadMap()
		if err != nil {
			return nil, err
		}
		p.offloadMap = om
		p.offloadEvery = pcfg.OffloadEvery
		p.sinceOffload = make([]int, shards)
	}
	p.start(p, shards, pcfg.RingSize, pcfg.BatchSize, pcfg.OnOverload, pcfg.testGate, cfg.Telemetry)
	return p, nil
}

// route sends a packet to its connection-hash shard.
func (p *Pipeline) route(r record) int { return p.sharded.shardOf(&r) }

func (p *Pipeline) routeChunk(recs []record, shards []int) {
	for i := range recs {
		shards[i] = p.sharded.shardOf(&recs[i])
	}
}

// decide runs one batch through shard sh's Limiter, so each
// core.BatchChunk-sized chunk gets the two-pass hash/probe treatment
// of ProcessBatch (DESIGN.md §12), and republishes the shard's offload
// section every offloadEvery batches.
func (p *Pipeline) decide(sh int, batch []record, dst []Decision) []Decision {
	dst = p.sharded.shards[sh].processRecords(batch, dst)
	if p.offloadMap != nil {
		if p.sinceOffload[sh]++; p.sinceOffload[sh] >= p.offloadEvery {
			// Between batches, on the shard's owning goroutine — the
			// single-writer position Section.Publish requires. A publish
			// error (impossible for a geometry-matched map) only leaves
			// the section stale, which escalation covers.
			_ = p.sharded.PublishOffloadShard(p.offloadMap, sh)
			p.sinceOffload[sh] = 0
		}
	}
	return dst
}

// idle publishes shard sh's offload section one last time at exit, so
// the exported map reflects every decided packet once the pipeline is
// quiescent.
func (p *Pipeline) idle(sh int, final bool) {
	if final && p.offloadMap != nil {
		_ = p.sharded.PublishOffloadShard(p.offloadMap, sh)
	}
}

// Stats sums the per-shard activity counters and adds the pipeline's
// shed counts (Stats.ShedPassed / Stats.ShedDropped — packets the
// overload policy turned away without a Limiter decision). Every counter
// is an atomic, so Stats is safe to call at any time, including while
// workers are deciding packets; a live snapshot is a consistent lower
// bound per counter, but cross-counter identities (matched + unmatched
// == inbound) are only guaranteed on a quiescent pipeline — after Close,
// or after a Drain with no concurrent submissions.
func (p *Pipeline) Stats() Stats {
	s := p.sharded.Stats()
	s.ShedPassed, s.ShedDropped = p.Shed()
	return s
}
