package bitvec

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// TestWriteToReadFromRoundTrip checks the stream is the little-endian
// image of the logical words — deferred clears read as zero — at sizes
// below, at and above one streaming chunk, and that ReadFrom restores
// contents and ones count exactly.
func TestWriteToReadFromRoundTrip(t *testing.T) {
	for _, nbits := range []uint{1 << 5, 1 << 12, 1 << 13, 1 << 20} {
		v := New(nbits)
		for i := uint32(0); i < uint32(nbits); i += 7 {
			v.Set(i)
		}
		v.Clear()
		for i := uint32(0); i < uint32(nbits); i += 13 {
			v.Set(i)
		}
		want := logicalWords(v)
		var buf bytes.Buffer
		n, err := v.WriteTo(&buf)
		if err != nil || n != int64(8*len(want)) || buf.Len() != 8*len(want) {
			t.Fatalf("%d bits: WriteTo = %d, %v; %d bytes buffered", nbits, n, err, buf.Len())
		}
		for i, w := range want {
			if got := binary.LittleEndian.Uint64(buf.Bytes()[8*i:]); got != w {
				t.Fatalf("%d bits: stream word %d = %#x, want %#x", nbits, i, got, w)
			}
		}
		back := New(nbits)
		back.Set(1) // overwritten by the read
		if n, err := back.ReadFrom(&buf); err != nil || n != int64(8*len(want)) {
			t.Fatalf("%d bits: ReadFrom = %d, %v", nbits, n, err)
		}
		if !back.Equal(v) || back.OnesCount() != v.OnesCount() {
			t.Fatalf("%d bits: round trip changed the vector", nbits)
		}
	}
}

// TestReadFromTruncatedLeavesVectorEmpty: a stream that ends part-way
// through the words is an error, and the half-overwritten vector reads
// as empty rather than as a mix of two vectors.
func TestReadFromTruncatedLeavesVectorEmpty(t *testing.T) {
	src := New(1 << 14)
	for i := uint32(0); i < 1<<14; i += 5 {
		src.Set(i)
	}
	var buf bytes.Buffer
	if _, err := src.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	v := New(1 << 14)
	v.Set(3)
	if _, err := v.ReadFrom(bytes.NewReader(buf.Bytes()[:1000])); err == nil {
		t.Fatal("ReadFrom accepted a truncated stream")
	}
	if v.OnesCount() != 0 || v.Get(3) || v.Get(5) {
		t.Fatalf("truncated read left %d bits set", v.OnesCount())
	}
}

// TestSerializationBuffersBounded: a WriteTo/ReadFrom round trip of a
// 2^20-bit vector streams through a bounded chunk, allocating a few
// KiB at most rather than the vector's 128 KiB of words.
func TestSerializationBuffersBounded(t *testing.T) {
	v := New(1 << 20)
	for i := uint32(0); i < 1<<20; i += 11 {
		v.Set(i)
	}
	var buf bytes.Buffer
	buf.Grow(v.Bytes())
	rd := bytes.NewReader(nil)
	const rounds = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		buf.Reset()
		if _, err := v.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		rd.Reset(buf.Bytes())
		if _, err := v.ReadFrom(rd); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / rounds; per > 4<<10 {
		t.Fatalf("round trip allocated %d B, want at most 4 KiB (vector holds %d B)", per, v.Bytes())
	}
}
