package experiments

import (
	"fmt"
	"strings"
	"time"

	"p2pbound/internal/bitvec"
	"p2pbound/internal/core"
	"p2pbound/internal/naive"
	"p2pbound/internal/packet"
	"p2pbound/internal/stats"
)

// Divergence quantifies how the bitmap filter's admission decisions differ
// from the exact naive timer table with the same expiry T_e = k·Δt.
//
//   - FalsePositives: inbound packets the bitmap admits although exact
//     state has expired or never existed (hash collisions plus the
//     mark-all/rotate window keeping flows alive up to Δt longer).
//   - FalseNegatives: inbound packets the bitmap would subject to the P_d
//     draw although exact state exists (rotation forgetting flows up to
//     Δt early).
type Divergence struct {
	Inbound        int64
	Stateless      int64 // inbound packets with no live exact state
	FalsePositives int64
	FalseNegatives int64
	Utilization    float64 // current bit-vector utilization at the end
}

// FPRate returns the false-positive fraction of inbound packets.
func (d Divergence) FPRate() float64 {
	if d.Inbound == 0 {
		return 0
	}
	return float64(d.FalsePositives) / float64(d.Inbound)
}

// FPRateStateless returns false positives per stateless inbound packet —
// the penetration probability of Section 5.1, measured on real traffic.
func (d Divergence) FPRateStateless() float64 {
	if d.Stateless == 0 {
		return 0
	}
	return float64(d.FalsePositives) / float64(d.Stateless)
}

// FNRate returns the false-negative fraction of inbound packets.
func (d Divergence) FNRate() float64 {
	if d.Inbound == 0 {
		return 0
	}
	return float64(d.FalseNegatives) / float64(d.Inbound)
}

// diverge replays the trace through a bitmap filter and a matched exact
// reference in monitor mode (P_d = 0, so both see identical traffic) and
// tallies decision differences. A nil derive keeps the filter's own
// index derivation; otherwise derive fills dst with the m indexes of a
// flow's outbound-view key bytes, and the filter decides over them.
func diverge(packets []packet.Packet, cfg core.Config, derive func(dst []uint32, key []byte)) (Divergence, error) {
	bitmap, err := core.New(cfg)
	if err != nil {
		return Divergence{}, err
	}
	exact, err := naive.New(bitmap.TE(), cfg.HolePunch, cfg.Seed)
	if err != nil {
		return Divergence{}, err
	}
	own := make([]uint32, cfg.M)
	key := make([]byte, 0, packet.KeySize)
	var d Divergence
	for i := range packets {
		pkt := &packets[i]
		bitmap.Advance(pkt.TS)
		exact.Advance(pkt.TS)
		sums := own
		if derive == nil {
			sums = bitmap.Sums(pkt)
		} else {
			pair := pkt.Pair
			if pkt.Dir != packet.Outbound {
				pair = pair.Inverse()
			}
			if cfg.HolePunch {
				key = pair.AppendHolePunchKey(key[:0])
			} else {
				key = pair.AppendKey(key[:0])
			}
			derive(sums, key)
		}
		if pkt.Dir == packet.Inbound {
			d.Inbound++
			bm := allSet(bitmap.Vector(bitmap.Index()), sums)
			nv := exact.Contains(pkt.Pair, pkt.TS)
			if !nv {
				d.Stateless++
			}
			switch {
			case bm && !nv:
				d.FalsePositives++
			case !bm && nv:
				d.FalseNegatives++
			}
		}
		bitmap.ProcessSums(pkt, sums, 0)
		exact.Process(pkt, 0)
	}
	d.Utilization = bitmap.Utilization()
	return d, nil
}

// allSet reports whether every index of sums is marked in v: the
// filter's Contains over indexes already derived.
func allSet(v *bitvec.Vector, sums []uint32) bool {
	for _, h := range sums {
		if !v.Get(h) {
			return false
		}
	}
	return true
}

// X1Row is one parameter point of the X1 sweep.
type X1Row struct {
	K      int
	NBits  uint
	M      int
	DeltaT time.Duration
	Bytes  int
	Div    Divergence
}

// X1Result sweeps the bitmap filter's parameters (Section 4.3's k, n, m,
// Δt discussion) and reports the divergence from exact state at each
// point.
type X1Result struct {
	Rows []X1Row
}

// RunX1 executes the sweep on the given trace.
func RunX1(packets []packet.Packet, seed uint64) (*X1Result, error) {
	res := &X1Result{}
	add := func(k int, nbits uint, m int, dt time.Duration) error {
		cfg := core.Config{K: k, NBits: nbits, M: m, DeltaT: dt, Seed: seed}
		div, err := diverge(packets, cfg, nil)
		if err != nil {
			return err
		}
		bitmap, err := core.New(cfg)
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, X1Row{K: k, NBits: nbits, M: m, DeltaT: dt, Bytes: bitmap.Bytes(), Div: div})
		return nil
	}
	// Vector-size sweep at the paper's k=4, m=3, Δt=5 s.
	for _, nbits := range []uint{12, 14, 16, 18, 20} {
		if err := add(4, nbits, 3, 5*time.Second); err != nil {
			return nil, err
		}
	}
	// Hash-count sweep at N=2^16 where collisions are visible.
	for _, m := range []int{1, 2, 3, 4, 6} {
		if err := add(4, 16, m, 5*time.Second); err != nil {
			return nil, err
		}
	}
	// Rotation-granularity sweep at fixed T_e = 20 s.
	for _, kdt := range []struct {
		k  int
		dt time.Duration
	}{
		{2, 10 * time.Second},
		{4, 5 * time.Second},
		{10, 2 * time.Second},
		{20, time.Second},
	} {
		if err := add(kdt.k, 20, 3, kdt.dt); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Render prints the sweep table.
func (r *X1Result) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.K),
			fmt.Sprintf("2^%d", row.NBits),
			fmt.Sprintf("%d", row.M),
			row.DeltaT.String(),
			fmt.Sprintf("%d KiB", row.Bytes/1024),
			stats.Pct(row.Div.FPRateStateless()),
			stats.Pct(row.Div.FNRate()),
			fmt.Sprintf("%.4f", row.Div.Utilization),
		})
	}
	var b strings.Builder
	b.WriteString("X1: parameter sweep — divergence from exact per-flow state\n")
	b.WriteString(stats.Table(
		[]string{"k", "N", "m", "Δt", "memory", "FP/stateless", "FN rate", "util"}, rows))
	return b.String()
}

// X2Result isolates the rotation-granularity design decision: the paper
// replaces exact per-entry timers with coarse Δt rotation; this measures
// the admission divergence that introduces at the paper's configuration.
type X2Result struct {
	Config core.Config
	Div    Divergence
}

// RunX2 measures the divergence at the paper's Section 5.3 configuration.
func RunX2(packets []packet.Packet, seed uint64) (*X2Result, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	div, err := diverge(packets, cfg, nil)
	if err != nil {
		return nil, err
	}
	return &X2Result{Config: cfg, Div: div}, nil
}

// Render prints the divergence summary.
func (r *X2Result) Render() string {
	return fmt.Sprintf(
		"X2: bitmap vs exact timer table (N=2^%d, k=%d, Δt=%v, T_e=%v)\n"+
			"  inbound packets        %d\n"+
			"  false positives        %d (%s) — admitted without live state\n"+
			"  false negatives        %d (%s) — challenged despite live state\n"+
			"  final bit utilization  %.5f\n",
		r.Config.NBits, r.Config.K, r.Config.DeltaT,
		time.Duration(r.Config.K)*r.Config.DeltaT,
		r.Div.Inbound,
		r.Div.FalsePositives, stats.Pct(r.Div.FPRate()),
		r.Div.FalseNegatives, stats.Pct(r.Div.FNRate()),
		r.Div.Utilization)
}

// X3Result evaluates hole-punching support (Section 4.2's partial-tuple
// hashing): sessions where the peer's reply arrives from a different
// remote port than the client's outbound punch targeted.
type X3Result struct {
	Sessions          int
	AdmittedFull      int // full-tuple hashing (hole punching unsupported)
	AdmittedHolePunch int // partial-tuple hashing
}

// RunX3 synthesizes NAT-traversal sessions and measures admission under
// both hash modes.
func RunX3(sessions int, seed uint64) (*X3Result, error) {
	mk := func(holePunch bool) (*core.Filter, error) {
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		cfg.HolePunch = holePunch
		return core.New(cfg)
	}
	full, err := mk(false)
	if err != nil {
		return nil, err
	}
	punched, err := mk(true)
	if err != nil {
		return nil, err
	}

	res := &X3Result{Sessions: sessions}
	client := packet.AddrFrom4(140, 112, 1, 9)
	for i := 0; i < sessions; i++ {
		remote := packet.AddrFrom4(8, 8, byte(i>>8), byte(i))
		punchPort := uint16(20000 + i%20000)
		clientPort := uint16(33000 + i%30000)
		// The client punches: outbound UDP to remote:punchPort.
		out := &packet.Packet{
			TS:  time.Duration(i) * time.Millisecond,
			Dir: packet.Outbound,
			Len: 60,
			Pair: packet.SocketPair{
				Proto:   packet.UDP,
				SrcAddr: client, SrcPort: clientPort,
				DstAddr: remote, DstPort: punchPort,
			},
		}
		// The peer replies from a different source port, as a symmetric
		// NAT rewrites it.
		in := &packet.Packet{
			TS:  out.TS + 30*time.Millisecond,
			Dir: packet.Inbound,
			Len: 60,
			Pair: packet.SocketPair{
				Proto:   packet.UDP,
				SrcAddr: remote, SrcPort: punchPort + 7,
				DstAddr: client, DstPort: clientPort,
			},
		}
		for _, f := range []*core.Filter{full, punched} {
			f.Advance(out.TS)
			f.Process(out, 1)
			f.Advance(in.TS)
		}
		if full.Process(in, 1) == core.Pass {
			res.AdmittedFull++
		}
		if punched.Process(in, 1) == core.Pass {
			res.AdmittedHolePunch++
		}
	}
	return res, nil
}

// Render prints the hole-punching comparison.
func (r *X3Result) Render() string {
	return fmt.Sprintf(
		"X3: hole-punching support (%d NAT-traversal sessions, peer replies from a shifted port)\n"+
			"  admitted with full-tuple hashing     %d\n"+
			"  admitted with partial-tuple hashing  %d (hole punching enabled)\n",
		r.Sessions, r.AdmittedFull, r.AdmittedHolePunch)
}
