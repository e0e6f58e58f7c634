package p2pbound

import (
	"errors"
	"fmt"
	"io"

	"p2pbound/internal/ingest"
)

// SubmitPcapFile replays the pcap capture at path through the pipeline.
// A regular file is mapped and its frames decoded in place; a FIFO or
// other non-regular file is streamed as SubmitPcapStream streams. The
// packets flow through the shard rings one batch at a time, so peak
// heap is one batch regardless of capture size. It
// returns the number of packets submitted and the source's terminal
// error, nil on a clean end of stream. Undecodable frames are skipped,
// not submitted and not counted; a capture truncated mid-record
// returns an error after the packets read before the tear.
//
// Like SubmitBatch, it must not be called after (or concurrently with)
// Close, and verdicts remain asynchronous — Drain or Close before
// reading the counters.
func (p *Pipeline) SubmitPcapFile(path string) (int64, error) {
	src, err := ingest.Open(path, p.clientNet, false)
	if err != nil {
		return 0, fmt.Errorf("p2pbound: %w", err)
	}
	defer src.Close()
	return p.submitIngest(src)
}

// SubmitPcapStream replays a pcap stream (stdin, a pipe, a socket)
// through the pipeline in batches, with the same contract as
// SubmitPcapFile. The stream is read to EOF.
func (p *Pipeline) SubmitPcapStream(r io.Reader) (int64, error) {
	src, err := ingest.NewStreamSource(r, p.clientNet, false)
	if err != nil {
		return 0, fmt.Errorf("p2pbound: %w", err)
	}
	return p.submitIngest(src)
}

// submitIngest drains an ingestion source into the pipeline: each batch
// the source decodes is converted to records in a reused buffer and
// routed like a SubmitBatch, so an arbitrarily large capture flows
// through the shard rings with only one batch of packets live at a
// time. Per-flow timestamp order is preserved because the whole source
// drains on this one producer goroutine.
func (p *Pipeline) submitIngest(src *ingest.Source) (int64, error) {
	b := ingest.NewBatch(0)
	recs := make([]record, len(b.Pkts))
	var total int64
	for {
		n, err := src.ReadBatch(b)
		if n > 0 {
			for i := range b.Pkts[:n] {
				recs[i].fromDecoded(&b.Pkts[i])
			}
			p.submitRecords(recs[:n])
			total += int64(n)
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				return total, nil
			}
			return total, fmt.Errorf("p2pbound: ingest: %w", err)
		}
	}
}
