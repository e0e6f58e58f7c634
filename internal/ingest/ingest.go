// Package ingest is the batch-oriented ingestion tier: it moves decoded
// packets from a capture (a pcap file or a pcap stream) into
// caller-owned batches sized for core.Filter.HashBatch / ProcessBatch,
// with zero per-packet allocations in steady state. Record framing and
// frame decoding are pcap.Reader's; this package decides where the
// bytes come from — a mapped file, walked in place, or a stream read
// through a window.
//
// Ownership contract: a source decodes into the batch the caller passes
// and aliases packet payloads into the bytes it walks (the mapping or
// the stream's window). Everything a ReadBatch call returns — packets
// and payload bytes — is valid only until the next ReadBatch on the same
// source. Callers that need packets to outlive the batch must copy them
// (and clone payloads) before reading again.
package ingest

import (
	"errors"
	"fmt"
	"io"
	"os"

	"p2pbound/internal/packet"
	"p2pbound/internal/pcap"
)

// DefaultBatchSize is the packet capacity of batches allocated by
// NewBatch when the caller does not choose one. It is a multiple of
// core.BatchChunk so batched filters run full two-pass chunks.
const DefaultBatchSize = 256

// Framing errors, pcap.Reader's sentinels under this package's names.
var (
	ErrTruncatedFile   = pcap.ErrTruncatedFile
	ErrBadRecordLength = pcap.ErrBadRecordLength
)

// Batch is a reusable block of decoded packets. A source fills
// Pkts[:n] in place; the slice header itself is never reallocated, so
// one batch serves an entire replay without allocating.
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

// Source is an open capture: a pcap.Reader and whatever its bytes come
// from. Malformed frames are counted and skipped, never surfaced as
// errors; broken record framing (ErrTruncatedFile, ErrBadRecordLength)
// ends the read.
type Source struct {
	r      *pcap.Reader
	close  func() error // unmaps or closes the file; nil when nothing is held
	closed bool
}

// NewMemSource returns a source over a whole pcap file in memory,
// global header included, walked in place: data is aliased, never
// copied, and must stay valid and unmodified while the source is in
// use. verify turns on IP/transport checksum verification, failing
// frames counted in Malformed and skipped.
func NewMemSource(data []byte, clientNet packet.Network, verify bool) (*Source, error) {
	r, err := pcap.NewMemReader(data, clientNet, verify)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	return &Source{r: r}, nil
}

// NewStreamSource returns a source over a pcap stream (stdin, a pipe, a
// socket); the arguments are otherwise NewMemSource's. Close does not
// close r.
func NewStreamSource(r io.Reader, clientNet packet.Network, verify bool) (*Source, error) {
	pr, err := pcap.NewReader(r, clientNet, verify)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	return &Source{r: pr}, nil
}

// Open opens the capture at path. A regular file is mapped (mmap(2) on
// linux) and walked in place; anything else (a FIFO, a device), and a
// regular file where there is no mapping, is streamed through a window.
// Close releases the mapping or closes the file.
func Open(path string, clientNet packet.Network, verify bool) (*Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("ingest: %w", err)
	}
	if st.Mode().IsRegular() {
		data, unmap, err := mapFile(f, st.Size())
		switch {
		case err == nil:
			f.Close() // the mapping outlives the descriptor
			s, err := NewMemSource(data, clientNet, verify)
			if err != nil {
				unmap()
				return nil, err
			}
			s.close = unmap
			return s, nil
		case !errors.Is(err, errors.ErrUnsupported):
			f.Close()
			return nil, fmt.Errorf("ingest: map %s: %w", path, err)
		}
	}
	s, err := NewStreamSource(f, clientNet, verify)
	if err != nil {
		f.Close()
		return nil, err
	}
	s.close = f.Close
	return s, nil
}

// OpenMMap is Open, kept under the name cmd/p2pbench calls.
func OpenMMap(path string, clientNet packet.Network, verify bool) (*Source, error) {
	return Open(path, clientNet, verify)
}

// ReadBatch decodes the next packets into b.Pkts in place and returns
// how many it produced, with io.EOF (possibly alongside a final n > 0)
// once the capture has cleanly ended, or the terminal framing or read
// error. A stream source hands back a partial batch rather than block
// on a live capture while decoded packets wait; see pcap.Reader. After
// Close it returns os.ErrClosed and touches no byte of the capture.
func (s *Source) ReadBatch(b *Batch) (int, error) {
	if s.closed {
		return 0, os.ErrClosed
	}
	return s.r.ReadBatch(b.Pkts)
}

// Malformed reports how many well-framed records were skipped:
// undecodable frames and checksum failures under verification.
func (s *Source) Malformed() int64 { return s.r.Malformed() }

// ClockRegressions reports how many records carried a capture timestamp
// behind an earlier record's; their TS values were clamped.
func (s *Source) ClockRegressions() int64 { return s.r.ClockRegressions() }

// Close releases the mapping or closes the file Open opened; every
// packet the source produced dies with it. Close is idempotent.
func (s *Source) Close() error {
	c := s.close
	s.close, s.closed = nil, true
	if c == nil {
		return nil
	}
	return c()
}
