package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"time"

	"p2pbound"
	"p2pbound/internal/packet"
	"p2pbound/internal/pcap"
	"p2pbound/internal/trace"
)

// workload is one set of generated inputs and the path through the
// library it exercises. README.md gives the reason for each.
type workload struct {
	name string
	why  string
	// layers are the layers a traced run records spans for; path are the
	// ones on the producer's path, whose times add up to the batch's.
	layers []layer
	path   []layer
	// passes is how many passes of the trace a measured run makes with
	// --seconds 10: about ten seconds' work on two cores for the library
	// as it stood when the benchmark was written. The count is fixed so
	// that two commits do the same work.
	passes int

	gen    func(seed uint64, quick bool) (*inputs, error)
	build  func(in *inputs) (system, error)
	replay func(in *inputs, o *oracle) error
	shadow func() (*shadow, error)
}

// system is one workload's program under test, built from its inputs.
type system interface {
	// pass hands the whole trace over once, timestamps shifted by shift,
	// in a closed loop: the next batch goes in only once every verdict of
	// the previous one is known.
	pass(shift time.Duration, rec *recorder) error
	// offered returns the number of packets handed over so far.
	offered() int64
	// verdicts returns the number of packets passed and dropped so far.
	verdicts() (passed, dropped int64)
	// account returns how far the counters are from accounting for every
	// offered packet exactly once, and how many packets were shed.
	account() (broken, shed int64)
	// limiterStats returns the summed counters of the deciding limiters.
	limiterStats() p2pbound.Stats
	// counters returns the workload's own layer counters.
	counters() map[string]float64
	close()
}

const (
	clientCIDR = "140.112.0.0/16"
	// limiterSeed seeds the limiters' drop draws; the workload seed only
	// makes inputs.
	limiterSeed = 7

	campusBatch    = 512
	ispBatch       = 512
	pipelineGroup  = 4096
	pipelineShards = 2
	offloadBatch   = 256
	publishEvery   = 8 // offload batches between two PublishOffload calls
	tenantBits     = 30
	tenantCount    = 1 << (tenantBits - 16) // every /30 of the client /16
	scrapeEvery    = 10 * time.Second       // of trace time
)

var clientNet = packet.CIDR(packet.AddrFrom4(140, 112, 0, 0), 16)

// paperDeltaT and paperVectors are the rotation period and vector count
// of every workload's filters, the paper's defaults; they set the
// oracle's timeouts.
const (
	paperDeltaT  = 5 * time.Second
	paperVectors = 4
)

var workloads = []*workload{
	{
		name:   "campus",
		passes: 50,
		why:    "the paper's trace at the paper's geometry through the daemon's own path: mmap ingest, per-index hashing and limiter bookkeeping; the table stays in cache",
		layers: []layer{lIngest, lLimiter, lCore, lHashes, lMetrics},
		path:   []layer{lIngest, lLimiter, lMetrics},
		gen:    genCampus,
		build:  buildCampus,
		replay: replayCampus,
		shadow: func() (*shadow, error) { return newShadow(paperConfig(), false, false) },
	},
	{
		name:   "isp-large",
		passes: 40,
		why:    "200k flows over a 32 MiB blocked table, 16x the L2: memory stalls of the probe dominate; ingest is bypassed",
		layers: []layer{lLimiter, lCore, lHashes},
		path:   []layer{lLimiter},
		gen:    genISP,
		build:  buildISP,
		replay: replayISP,
		shadow: func() (*shadow, error) { return newShadow(ispConfig(), false, false) },
	},
	{
		name:   "sharded",
		passes: 35,
		why:    "isp-large's packets and geometry through a two-shard Pipeline: the filter work is isp-large's, so the difference isolates routing, ring hand-off and workers",
		layers: []layer{lPipelineSubmit, lPipelineDrain, lRoute, lLimiter, lCore, lHashes},
		path:   []layer{lPipelineSubmit, lPipelineDrain},
		gen:    genISP,
		build:  buildSharded,
		replay: replaySharded,
		shadow: func() (*shadow, error) { return newShadow(ispConfig(), true, true) },
	},
	{
		name:   "offload",
		passes: 40,
		why:    "campus packets through the fast-path probe first; misses ride the MissRing to the limiter and the flat map is republished every 8 batches",
		layers: []layer{lProbe, lLimiter, lPublish, lCore, lHashes},
		path:   []layer{lProbe, lLimiter, lPublish},
		gen:    genOffload,
		build:  buildOffload,
		replay: replayOffload,
		shadow: func() (*shadow, error) { return newShadow(offloadConfig(), false, false) },
	},
	{
		name:   "tenants",
		passes: 10,
		why:    "isp-large's packets over 16,384 /30 subscribers in a two-shard TenantPipeline: prefix routing, spill and hydrate, and the second executor",
		layers: []layer{lTenantSubmit, lTenantDrain, lLimiter, lCore, lHashes},
		path:   []layer{lTenantSubmit, lTenantDrain},
		gen:    genISP,
		build:  buildTenants,
		replay: replayTenants,
		shadow: func() (*shadow, error) {
			cfg := tenantManagerConfig().Tenant
			cfg.ClientNetwork = clientCIDR
			return newShadow(cfg, true, false)
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// paperConfig is the paper's evaluation geometry and thresholds: k=4
// vectors of 2^20 bits, m=3 per-index hashes, the classic layout,
// Δt=5 s, RED from 50 to 100 Mbps.
func paperConfig() p2pbound.Config {
	return p2pbound.Config{ClientNetwork: clientCIDR, Seed: limiterSeed}
}

// offloadConfig is the paper's geometry with the RED ramp moved down to
// what the slow path meters: outbound packets the fast path answers never
// reach the limiter's uplink meter, so at the paper's thresholds the ramp
// would never start and no verdict would be a drop.
func offloadConfig() p2pbound.Config {
	c := paperConfig()
	c.LowMbps, c.HighMbps = 2, 8
	return c
}

// ispConfig is the ISP-edge geometry: k=4 vectors of 2^26 bits (32 MiB)
// in the cache-line-blocked layout.
func ispConfig() p2pbound.Config {
	return p2pbound.Config{
		ClientNetwork: clientCIDR,
		VectorBits:    26,
		Layout:        p2pbound.LayoutBlocked,
		Seed:          limiterSeed,
	}
}

// tenantManagerConfig gives each /30 subscriber k=4 vectors of 2^14 bits
// and a RED ramp scaled to one subscriber's share of the uplink, nested
// under the edge's own 50–100 Mbps budget.
func tenantManagerConfig() p2pbound.TenantManagerConfig {
	return p2pbound.TenantManagerConfig{
		Tenant: p2pbound.Config{
			VectorBits: 14,
			LowMbps:    0.05,
			HighMbps:   0.2,
			Seed:       limiterSeed,
		},
		PrefixBits:        tenantBits,
		Shards:            pipelineShards,
		AggregateLowMbps:  50,
		AggregateHighMbps: 100,
	}
}

// tenantConfigs registers every /30 of the client network.
func tenantConfigs() []p2pbound.TenantConfig {
	tcs := make([]p2pbound.TenantConfig, tenantCount)
	for i := range tcs {
		a := clientNet.Prefix + packet.Addr(i<<(32-tenantBits))
		tcs[i] = p2pbound.TenantConfig{Network: fmt.Sprintf("%s/%d", a, tenantBits)}
	}
	return tcs
}

// tenantOf returns the index into tenantConfigs of the subscriber a packet
// routes to: its source when the source is a client, else its destination.
func tenantOf(p *packet.Packet) int {
	a := p.Pair.DstAddr
	if clientNet.Contains(p.Pair.SrcAddr) {
		a = p.Pair.SrcAddr
	}
	return int((a - clientNet.Prefix) >> (32 - tenantBits))
}

// capture is a generated trace cut to a fixed number of packets, as a
// capture window is: every seed then gives the same amount of work, where
// internal/trace's packet count for a given duration varies by several
// percent from seed to seed.
type capture struct {
	cfg     trace.Config
	packets int
}

// campusTrace is the paper's trace as internal/trace renders it at full
// scale, 250 connections/s and 146.7 Mbps: its first 1,000,000 packets,
// about a minute.
func campusTrace(seed uint64, quick bool) capture {
	if quick {
		return capture{trace.DefaultConfig(3*time.Second, 1.0, seed), 12000}
	}
	return capture{trace.DefaultConfig(70*time.Second, 1.0, seed), 1000000}
}

// ispTrace is a many-flow edge, 10k connections/s from 20k clients: its
// first 1,150,000 packets, about 20 s and 200k flows.
func ispTrace(seed uint64, quick bool) capture {
	c := trace.DefaultConfig(21*time.Second, 1.0, seed)
	c.ConnsPerSec = 10000
	c.TargetMbps = 150
	c.Clients = 20000
	n := 1150000
	if quick {
		c.Duration, n = 3*time.Second, 100000
	}
	return capture{c, n}
}

// generate renders the capture and returns its packets and the span by
// which each pass shifts them: just past the last packet.
func (c capture) generate() ([]packet.Packet, time.Duration, error) {
	tr, err := trace.Generate(c.cfg)
	if err != nil {
		return nil, 0, err
	}
	if len(tr.Packets) < c.packets {
		return nil, 0, fmt.Errorf("%v holds %d packets, fewer than the %d the workload takes", tr, len(tr.Packets), c.packets)
	}
	pkts := tr.Packets[:c.packets]
	return pkts, pkts[len(pkts)-1].TS + time.Millisecond, nil
}

// inputs are a workload's generated packets, made from the seed alone.
type inputs struct {
	// pkts is the trace decoded in advance (every workload but campus).
	pkts []p2pbound.Packet
	// keys is, for offload, each packet as the fast path sees it.
	keys []probeKey
	// pcap is, for campus, the trace rendered to a capture file in dir.
	pcap, dir string
	// span is the timestamp shift from one pass to the next.
	span time.Duration
	// shifted is the shift pkts currently carry; see each.
	shifted time.Duration
	digest  string
}

// probeKey is a packet as the offload fast path sees it.
type probeKey struct {
	pair packet.SocketPair
	dir  packet.Direction
}

func (in *inputs) cleanup() {
	if in.dir != "" {
		os.RemoveAll(in.dir)
	}
}

// each hands pkts over in slices of n, their timestamps shifted by shift,
// calling fn with each slice and the index of its first packet. Packets
// are shifted in place, one slice just before it is handed over, so the
// harness touches no memory the program is not about to read.
func (in *inputs) each(n int, shift time.Duration, fn func(lo int, b []p2pbound.Packet) error) error {
	delta := shift - in.shifted
	for lo := 0; lo < len(in.pkts); lo += n {
		b := in.pkts[lo:min(lo+n, len(in.pkts))]
		for i := range b {
			b[i].Timestamp += delta
		}
		if err := fn(lo, b); err != nil {
			return err
		}
	}
	in.shifted = shift
	return nil
}

func genCampus(seed uint64, quick bool) (*inputs, error) {
	pkts, span, err := campusTrace(seed, quick).generate()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "p2pbench-")
	if err != nil {
		return nil, err
	}
	in := &inputs{dir: dir, pcap: filepath.Join(dir, "campus.pcap"), span: span, digest: digest(pkts)}
	if err := writePcap(in.pcap, pkts); err != nil {
		in.cleanup()
		return nil, err
	}
	return in, nil
}

func genISP(seed uint64, quick bool) (*inputs, error) {
	pkts, span, err := ispTrace(seed, quick).generate()
	if err != nil {
		return nil, err
	}
	return &inputs{pkts: publicAll(pkts), span: span, digest: digest(pkts)}, nil
}

func genOffload(seed uint64, quick bool) (*inputs, error) {
	pkts, span, err := campusTrace(seed, quick).generate()
	if err != nil {
		return nil, err
	}
	keys := make([]probeKey, len(pkts))
	for i := range pkts {
		keys[i] = probeKey{pkts[i].Pair, pkts[i].Dir}
	}
	return &inputs{pkts: publicAll(pkts), keys: keys, span: span, digest: digest(pkts)}, nil
}

// captureBase is the wall-clock origin of rendered captures.
var captureBase = time.Date(2007, 6, 25, 0, 0, 0, 0, time.UTC)

func writePcap(path string, pkts []packet.Packet) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := pcap.WriteAll(bw, pkts, 0, captureBase); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// digest hashes every generated packet's timestamp, five tuple, direction
// and length.
func digest(pkts []packet.Packet) string {
	h := sha256.New()
	var b [32]byte
	for i := range pkts {
		p := &pkts[i]
		binary.LittleEndian.PutUint64(b[0:], uint64(p.TS))
		b[8] = byte(p.Pair.Proto)
		binary.LittleEndian.PutUint32(b[9:], uint32(p.Pair.SrcAddr))
		binary.LittleEndian.PutUint16(b[13:], p.Pair.SrcPort)
		binary.LittleEndian.PutUint32(b[15:], uint32(p.Pair.DstAddr))
		binary.LittleEndian.PutUint16(b[19:], p.Pair.DstPort)
		b[21] = byte(p.Dir)
		binary.LittleEndian.PutUint64(b[22:], uint64(p.Len))
		h.Write(b[:30])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func publicAll(pkts []packet.Packet) []p2pbound.Packet {
	out := make([]p2pbound.Packet, len(pkts))
	for i := range pkts {
		out[i] = public(&pkts[i], 0)
	}
	return out
}

// public converts a decoded packet to the library's Packet, shifted by
// shift.
func public(p *packet.Packet, shift time.Duration) p2pbound.Packet {
	return p2pbound.Packet{
		Timestamp: p.TS + shift,
		Protocol:  p2pbound.Protocol(p.Pair.Proto),
		SrcAddr:   addr(p.Pair.SrcAddr),
		SrcPort:   p.Pair.SrcPort,
		DstAddr:   addr(p.Pair.DstAddr),
		DstPort:   p.Pair.DstPort,
		Size:      p.Len,
	}
}

// internal converts a library Packet back to the decoded form, classified
// against the client network. Every generated packet is IPv4.
func internal(p *p2pbound.Packet) packet.Packet {
	s, d := p.SrcAddr.As4(), p.DstAddr.As4()
	pair := packet.SocketPair{
		Proto:   packet.Proto(p.Protocol),
		SrcAddr: packet.AddrFrom4(s[0], s[1], s[2], s[3]),
		SrcPort: p.SrcPort,
		DstAddr: packet.AddrFrom4(d[0], d[1], d[2], d[3]),
		DstPort: p.DstPort,
	}
	return packet.Packet{TS: p.Timestamp, Pair: pair, Dir: packet.Classify(pair, clientNet), Len: p.Size}
}

func addr(a packet.Addr) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)})
}
