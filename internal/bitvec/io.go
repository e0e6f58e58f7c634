package bitvec

import (
	"encoding/binary"
	"errors"
	"io"
	"math/bits"
	"strconv"

	"p2pbound/internal/errfmt"
)

// ioChunkWords is the number of words WriteTo and ReadFrom stream
// through one buffer: 512 bytes, so a save or a tenant spill allocates
// one small chunk per vector instead of a copy of the vector.
const ioChunkWords = 64

// WriteTo serializes the vector's words in little-endian order. It
// implements io.WriterTo. Any deferred clear is completed first so the
// stream carries the logical contents.
func (v *Vector) WriteTo(w io.Writer) (int64, error) {
	v.normalize()
	var buf [8 * ioChunkWords]byte
	var total int64
	for lo := 0; lo < len(v.words); lo += ioChunkWords {
		chunk := v.words[lo:min(lo+ioChunkWords, len(v.words))]
		for i, word := range chunk {
			binary.LittleEndian.PutUint64(buf[i*8:], word)
		}
		n, err := w.Write(buf[:8*len(chunk)])
		total += int64(n)
		if err != nil {
			return total, errfmt.Wrap("bitvec: write", err)
		}
	}
	return total, nil
}

// WriteFrame serializes the vector as a length-framed record: a
// little-endian uint32 byte count followed by the WriteTo payload. The
// explicit length lets a reader detect truncation at the vector boundary
// instead of misparsing the next vector's bytes as this one's tail.
func (v *Vector) WriteFrame(w io.Writer) (int64, error) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(8*len(v.words)))
	n, err := w.Write(hdr[:])
	total := int64(n)
	if err != nil {
		return total, errfmt.Wrap("bitvec: write frame header", err)
	}
	m, err := v.WriteTo(w)
	return total + m, err
}

// ReadFrame overwrites the vector's contents from a WriteFrame record,
// rejecting a frame whose declared length does not match this vector's
// size — a cheap structural check that catches truncated or spliced
// snapshot streams before any bits are adopted.
func (v *Vector) ReadFrame(r io.Reader) (int64, error) {
	var hdr [4]byte
	n, err := io.ReadFull(r, hdr[:])
	total := int64(n)
	if err != nil {
		return total, errfmt.Wrap("bitvec: read frame header", err)
	}
	if got := binary.LittleEndian.Uint32(hdr[:]); got != uint32(8*len(v.words)) {
		return total, errors.New("bitvec: frame length " + strconv.FormatUint(uint64(got), 10) +
			" does not match vector size " + strconv.Itoa(8*len(v.words)))
	}
	m, err := v.ReadFrom(r)
	return total + m, err
}

// ReadFrom overwrites the vector's contents from a stream produced by
// WriteTo on a vector of the same size. It implements io.ReaderFrom.
// The words are decoded in place, one bounded chunk at a time, so a
// stream that fails part-way leaves the vector cleared rather than
// holding a mix of old and new words; callers discard it (core.ReadFilter
// reads into a fresh filter).
func (v *Vector) ReadFrom(r io.Reader) (int64, error) {
	var buf [8 * ioChunkWords]byte
	var total int64
	ones := 0
	for lo := 0; lo < len(v.words); lo += ioChunkWords {
		chunk := v.words[lo:min(lo+ioChunkWords, len(v.words))]
		n, err := io.ReadFull(r, buf[:8*len(chunk)])
		total += int64(n)
		if err != nil {
			v.Clear()
			return total, errfmt.Wrap("bitvec: read", err)
		}
		for i := range chunk {
			chunk[i] = binary.LittleEndian.Uint64(buf[i*8:])
			ones += bits.OnesCount64(chunk[i])
		}
	}
	// The stream carried fully-materialized contents: stamp every block
	// fresh and rebuild the incremental ones count.
	for i := range v.blockEpoch {
		v.blockEpoch[i] = v.epoch
	}
	v.sweep = len(v.blockEpoch)
	v.ones = ones
	v.syncs++
	return total, nil
}
