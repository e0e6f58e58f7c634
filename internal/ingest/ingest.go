// Package ingest is the batch-oriented ingestion tier: it moves decoded
// packets from a capture source (a pcap file or a pcap stream) into
// caller-owned batches sized for core.Filter.HashBatch /
// ProcessBatch, with zero per-packet allocations in steady state.
//
// Ownership contract: a source decodes into the batch the caller passes
// and may alias packet payloads into its own buffers (the mmap'ed
// file). Everything a ReadBatch call returns — packets and
// payload bytes — is valid only until the next ReadBatch on the same
// source. Callers that need packets to outlive the batch must copy them
// (and clone payloads) before reading again.
package ingest

import (
	"errors"
	"io"

	"p2pbound/internal/packet"
	"p2pbound/internal/pcap"
)

// DefaultBatchSize is the packet capacity of batches allocated by
// NewBatch when the caller does not choose one. It is a multiple of
// core.BatchChunk so batched filters run full two-pass chunks.
const DefaultBatchSize = 256

// Batch is a reusable block of decoded packets. A source fills
// Pkts[:n] in place; the slice header itself is never reallocated by
// conforming sources, so one batch serves an entire replay without
// allocating.
type Batch struct {
	Pkts []packet.Packet
}

// NewBatch allocates a batch holding up to n packets (DefaultBatchSize
// when n <= 0).
func NewBatch(n int) *Batch {
	if n <= 0 {
		n = DefaultBatchSize
	}
	return &Batch{Pkts: make([]packet.Packet, n)}
}

// Ingest is a batch packet source. ReadBatch decodes up to len(b.Pkts)
// packets into b.Pkts[:n] and returns n. It returns io.EOF — possibly
// together with a final n > 0 — when the source is exhausted, and may
// return n == 0 with a nil error when no packets are ready yet (live
// sources). Malformed frames are counted by the source and skipped,
// never surfaced as errors.
type Ingest interface {
	ReadBatch(b *Batch) (int, error)
}

// ReaderSource adapts the streaming pcap.Reader to the Ingest
// interface. Each batch slot's payload backing array is reused across
// ReadBatch calls (ReadPacketInto), so steady-state reading allocates
// nothing once payload capacities have grown to the trace's largest
// packet. Frames pcap.Reader rejects — malformed headers, checksum
// mismatches under verification — are counted and skipped, matching the
// mmap walker; only framing-level failures (truncated record, I/O
// error) end the stream.
type ReaderSource struct {
	r         *pcap.Reader
	malformed int64
}

// NewReaderSource wraps r. Configure r.VerifyChecksums before the first
// ReadBatch.
func NewReaderSource(r *pcap.Reader) *ReaderSource {
	return &ReaderSource{r: r}
}

// ReadBatch fills b from the underlying reader. On a live stream (a
// tcpdump FIFO) it returns a partial batch as soon as the next record
// is not already buffered, rather than holding decoded packets hostage
// to a blocking read — the stream's consumer stays responsive at any
// traffic rate.
func (s *ReaderSource) ReadBatch(b *Batch) (int, error) {
	n := 0
	for n < len(b.Pkts) {
		if n > 0 {
			if buf := s.r.Buffered(); buf >= 0 && buf < 16 {
				return n, nil
			}
		}
		err := s.r.ReadPacketInto(&b.Pkts[n])
		switch {
		case err == nil:
			n++
		case errors.Is(err, io.EOF):
			return n, io.EOF
		case pcap.IsFrameError(err):
			s.malformed++
		default:
			return n, err
		}
	}
	return n, nil
}

// Malformed reports how many frames were skipped as undecodable or
// corrupt.
func (s *ReaderSource) Malformed() int64 { return s.malformed }

// ClockRegressions proxies the underlying reader's count of
// backwards-running capture timestamps.
func (s *ReaderSource) ClockRegressions() int64 { return s.r.ClockRegressions() }
