package p2pbound

import (
	"net/netip"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// parkPkt is the i-th of a stream of outbound UDP packets from the test
// client network, spread over many connections (and so over shards).
func parkPkt(i int) Packet {
	return Packet{
		Timestamp: time.Duration(i) * time.Microsecond,
		Protocol:  UDP,
		SrcAddr:   netip.AddrFrom4([4]byte{140, 112, byte(i >> 8), byte(i)}), SrcPort: uint16(1024 + i%50000),
		DstAddr: netip.AddrFrom4([4]byte{9, 9, byte(i >> 8), byte(i)}), DstPort: 6881,
		Size: 200,
	}
}

func parkPkts(from, n int) []Packet {
	pkts := make([]Packet, n)
	for i := range pkts {
		pkts[i] = parkPkt(from + i)
	}
	return pkts
}

// execOf returns the executor behind a front end from frontEnds.
func execOf(t *testing.T, fe frontEnd) *executor {
	switch f := fe.(type) {
	case *Pipeline:
		return &f.executor
	case tenantFrontEnd:
		return &f.executor
	}
	t.Fatalf("unknown front end %T", fe)
	return nil
}

// waitParked waits until every worker of e is parked on its ring.
func waitParked(t *testing.T, e *executor) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, r := range e.rings {
		for !r.sleeping.Load() {
			if time.Now().After(deadline) {
				t.Fatal("a worker did not park within 10s of its ring running dry")
			}
			runtime.Gosched()
		}
	}
}

// checkDecided fails unless the front end decided exactly n packets.
func checkDecided(t *testing.T, fe frontEnd, n int64) {
	t.Helper()
	if passed, dropped := fe.Verdicts(); passed+dropped != n {
		t.Fatalf("decided %d packets, want %d", passed+dropped, n)
	}
}

// TestExecutorParkWake drives the worker park/wake protocol through the
// transitions a lost wakeup would hang: a park→wake cycle per packet, a
// group larger than the ring published into a parked worker (the
// producer waits for space mid-group, so every partial publish must wake
// the worker), and Close with every worker parked. A lost wakeup is a
// hang, so run it with a -timeout below the default.
func TestExecutorParkWake(t *testing.T) {
	cfg := Config{ClientNetwork: testNet, Seed: 1}
	cases := []struct {
		name string
		pcfg PipelineConfig
		run  func(t *testing.T, fe frontEnd)
	}{
		{"submit-drain-cycles", PipelineConfig{Shards: 2}, func(t *testing.T, fe frontEnd) {
			const n = 10000
			e := execOf(t, fe)
			for i := 0; i < n; i++ {
				waitParked(t, e)
				fe.Submit(parkPkt(i))
				fe.Drain()
			}
			checkDecided(t, fe, n)
		}},
		{"batch-into-parked-ring", PipelineConfig{Shards: 2, RingSize: 2, BatchSize: 1}, func(t *testing.T, fe frontEnd) {
			waitParked(t, execOf(t, fe))
			fe.SubmitBatch(parkPkts(0, 64))
			fe.Drain()
			checkDecided(t, fe, 64)
		}},
		{"close-parked", PipelineConfig{Shards: 2}, func(t *testing.T, fe frontEnd) {
			fe.SubmitBatch(parkPkts(0, 100))
			fe.Drain()
			waitParked(t, execOf(t, fe))
			fe.Close()
			checkDecided(t, fe, 100)
		}},
	}
	for _, tc := range cases {
		for _, fe := range frontEnds {
			t.Run(tc.name+"/"+fe.name, func(t *testing.T) {
				pipe := fe.start(t, cfg, tc.pcfg)
				defer pipe.Close()
				tc.run(t, pipe)
			})
		}
	}
}

// TestExecutorConcurrentDrain runs Drain from three goroutines while two
// producers submit: every Drain must return, and a final Drain must
// account for every submitted packet. A second case parks three Drains
// on one batch held behind the test gate, so a worker that woke only one
// waiter per completed batch would strand the other two.
func TestExecutorConcurrentDrain(t *testing.T) {
	const producers, drainers, batches, batchLen = 2, 3, 200, 97
	for _, fe := range frontEnds {
		t.Run("mixed/"+fe.name, func(t *testing.T) {
			pipe := fe.start(t, Config{ClientNetwork: testNet, Seed: 1}, PipelineConfig{Shards: 2, RingSize: 64, BatchSize: 16})
			defer pipe.Close()
			var submitting, draining sync.WaitGroup
			var stop atomic.Bool
			submitting.Add(producers)
			for g := 0; g < producers; g++ {
				go func(g int) {
					defer submitting.Done()
					for b := 0; b < batches; b++ {
						// Each producer owns disjoint connections, so
						// per-flow timestamp order holds.
						pipe.SubmitBatch(parkPkts((g*batches+b)*batchLen, batchLen))
					}
				}(g)
			}
			draining.Add(drainers)
			for d := 0; d < drainers; d++ {
				go func() {
					defer draining.Done()
					for !stop.Load() {
						pipe.Drain()
					}
				}()
			}
			submitting.Wait()
			stop.Store(true)
			draining.Wait()
			pipe.Drain()
			checkDecided(t, pipe, producers*batches*batchLen)
		})
		t.Run("one-batch/"+fe.name, func(t *testing.T) {
			gate := make(chan struct{})
			pipe := fe.start(t, Config{ClientNetwork: testNet, Seed: 1}, PipelineConfig{Shards: 1, testGate: gate})
			defer pipe.Close()
			pipe.SubmitBatch(parkPkts(0, 100))
			r := execOf(t, pipe).rings[0]
			var draining sync.WaitGroup
			draining.Add(drainers)
			for d := 0; d < drainers; d++ {
				go func() {
					defer draining.Done()
					pipe.Drain()
				}()
			}
			for r.waiters.Load() < drainers {
				runtime.Gosched()
			}
			close(gate)
			draining.Wait()
			checkDecided(t, pipe, 100)
		})
	}
}

// idleCounter is a shardBackend that routes by source port, passes
// everything, and counts each shard's idle-hook runs: the worker runs
// the hook once before every park, so a worker that keeps waking up
// while its ring is empty shows up as a growing count.
type idleCounter struct {
	idles []atomic.Int64
}

func (b *idleCounter) route(r record) int { return int(r.sport) % len(b.idles) }

func (b *idleCounter) routeChunk(recs []record, shards []int) {
	for i := range recs {
		shards[i] = b.route(recs[i])
	}
}

func (b *idleCounter) decide(sh int, batch []record, dst []Decision) []Decision {
	for range batch {
		dst = append(dst, Pass)
	}
	return dst
}

func (b *idleCounter) idle(sh int, final bool) { b.idles[sh].Add(1) }

func (b *idleCounter) counts() []int64 {
	c := make([]int64, len(b.idles))
	for i := range b.idles {
		c[i] = b.idles[i].Load()
	}
	return c
}

// TestExecutorIdleParks pins that an idle pipeline burns no CPU: after
// Drain every worker parks and stays parked, with no wakeups, until a
// packet arrives for its own ring.
func TestExecutorIdleParks(t *testing.T) {
	const shards = 2
	be := &idleCounter{idles: make([]atomic.Int64, shards)}
	var e executor
	e.start(be, shards, 0, 0, ShedBlock, nil, nil)
	defer e.Close()

	e.SubmitBatch(parkPkts(0, 1000))
	e.Drain()
	waitParked(t, &e)
	before := be.counts()
	time.Sleep(50 * time.Millisecond)
	for sh, r := range e.rings {
		if !r.sleeping.Load() {
			t.Fatalf("shard %d worker woke with nothing submitted", sh)
		}
		if got := be.idles[sh].Load(); got != before[sh] {
			t.Fatalf("shard %d worker ran %d idle cycles with nothing submitted", sh, got-before[sh])
		}
	}

	// A packet for shard 0 wakes shard 0's worker alone.
	pkt := parkPkt(0)
	pkt.SrcPort = 0
	e.Submit(pkt)
	e.Drain()
	waitParked(t, &e)
	after := be.counts()
	if after[0] == before[0] {
		t.Fatal("shard 0 worker decided a packet without leaving its park")
	}
	if after[1] != before[1] {
		t.Fatalf("shard 1 worker woke %d times for a packet on shard 0", after[1]-before[1])
	}
	if passed, _ := e.Verdicts(); passed != 1001 {
		t.Fatalf("passed %d packets, want 1001", passed)
	}
}

// TestRecordLayout pins the executor's packet record at 32 bytes of
// plain scalars: rings, staging buffers and worker batches copy it per
// packet, and a pointer would make the garbage collector scan them.
func TestRecordLayout(t *testing.T) {
	typ := reflect.TypeOf(record{})
	if typ.Size() > 32 {
		t.Fatalf("record is %d bytes, want at most 32", typ.Size())
	}
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("record field %s has kind %v, want a plain scalar", f.Name, f.Type.Kind())
		}
	}
}

// TestExecutorSubmitBatchAllocationFree guards the executor's steady
// state on both front ends: once the pooled staging area and the
// workers' batches exist, SubmitBatch, Submit or TrySubmit plus Drain
// allocate nothing, workers included. Submit and TrySubmit push a
// one-record array through the group forms; it stays on the stack.
func TestExecutorSubmitBatchAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are not meaningful")
	}
	pkts := parkPkts(0, 3000)
	for _, fe := range frontEnds {
		t.Run(fe.name, func(t *testing.T) {
			pipe := fe.start(t, Config{ClientNetwork: testNet, Seed: 1}, PipelineConfig{Shards: 2})
			defer pipe.Close()
			for _, c := range []struct {
				name   string
				submit func()
			}{
				{"SubmitBatch", func() { pipe.SubmitBatch(pkts) }},
				{"Submit", func() {
					for i := range pkts {
						pipe.Submit(pkts[i])
					}
				}},
				{"TrySubmit", func() {
					for i := range pkts {
						pipe.TrySubmit(pkts[i])
					}
				}},
			} {
				if avg := testing.AllocsPerRun(20, func() {
					c.submit()
					pipe.Drain()
				}); avg != 0 {
					t.Fatalf("%s+Drain allocates %.2f allocs/op, want 0", c.name, avg)
				}
			}
		})
	}
}
