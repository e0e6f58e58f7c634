package core

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"strconv"
	"time"

	"p2pbound/internal/errfmt"
	"p2pbound/internal/hashes"
)

// hex renders v as 0x-prefixed lowercase hexadecimal, the fmt %#x form
// used in snapshot diagnostics.
func hex(v uint64) string { return "0x" + strconv.FormatUint(v, 16) }

// Snapshot format constants. The format is versioned so deployed state
// files survive library upgrades that do not touch the layout.
//
// Version 2, the only version, is built for crash-safe edge operation:
// each bit vector is length-framed (bitvec.WriteFrame) and the whole
// stream — header and frames — is covered by a trailing CRC32C, so a
// torn write, a truncated file, or a single flipped bit is rejected with
// a clean error instead of silently loading a corrupt admission table
// (which would convert false negatives into dropped legitimate traffic).
// The unchecksummed version 1 is no longer read.
const (
	snapshotMagic = 0x424d4631 // "BMF1"
	snapshotV2    = 2

	// snapshotHash is the hash construction word at header byte 28. The
	// library has one construction, FNV-double, which the format has
	// always numbered 1; a reader also takes the 0 that once meant "the
	// default", and rejects anything else.
	snapshotHash = 1

	snapshotHeaderLen  = 56
	snapshotTrailerLen = 4
)

// Snapshot geometry caps. ReadFilter must allocate the filter before it
// can verify the checksum, so a corrupt or hostile header could other-
// wise demand an absurd allocation. Real deployments sit far below both
// caps (the paper's configuration is k=4, 128 KiB per vector).
const (
	maxSnapshotK     = 1024
	maxSnapshotM     = 1024
	maxSnapshotBytes = 1 << 28 // 256 MiB of vector payload
)

// castagnoli is the CRC32C table shared by snapshot writers and readers.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteTo serializes the filter — configuration, rotation state, and all
// k bit vectors — so a restarted edge router can resume admitting the
// flows it was already tracking instead of challenging every client for
// the first T_e after boot. Counters are not persisted. The stream is
// the version-2 format: length-framed vectors and a CRC32C trailer over
// every preceding byte. It implements io.WriterTo.
func (f *Filter) WriteTo(w io.Writer) (int64, error) {
	crc := crc32.New(castagnoli)
	cw := io.MultiWriter(w, crc)

	hdr := encodeHeader(f.cfg, f.started, f.idx, f.next)
	total := int64(0)
	n, err := cw.Write(hdr[:])
	total += int64(n)
	if err != nil {
		return total, errfmt.Wrap("core: write snapshot header", err)
	}
	for _, v := range f.vectors {
		m, err := v.WriteFrame(cw)
		total += m
		if err != nil {
			return total, errfmt.Wrap("core: write snapshot vectors", err)
		}
	}
	var trailer [snapshotTrailerLen]byte
	binary.LittleEndian.PutUint32(trailer[:], crc.Sum32())
	n, err = w.Write(trailer[:])
	total += int64(n)
	if err != nil {
		return total, errfmt.Wrap("core: write snapshot trailer", err)
	}
	return total, nil
}

// AppendSnapshot appends to dst the version-2 snapshot of a filter
// with configuration cfg, rotation state rot, and vector words as
// SpillWords copied them: byte for byte what WriteTo writes for that
// filter. A tenant manager keeps idle filters as raw words and renders
// the snapshot format only when it saves.
func AppendSnapshot(dst []byte, cfg Config, rot RotationState, words []uint64) []byte {
	// Filters store their resolved scheme and layout; a configuration
	// taken before construction may still hold the zero defaults. The
	// combination was valid when the filter was built.
	cfg, _ = cfg.Resolve()
	start := len(dst)
	hdr := encodeHeader(cfg, rot.Started, rot.Index, rot.Next)
	dst = append(dst, hdr[:]...)
	n := len(words) / cfg.K
	for lo := 0; lo < len(words); lo += n {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(8*n))
		for _, w := range words[lo : lo+n] {
			dst = binary.LittleEndian.AppendUint64(dst, w)
		}
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// encodeHeader renders the fixed snapshot header from a filter's
// configuration and rotation schedule.
//
//p2p:codec snapshotv2 encode
func encodeHeader(cfg Config, started bool, idx int, next time.Duration) [snapshotHeaderLen]byte {
	var hdr [snapshotHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], snapshotMagic)
	binary.LittleEndian.PutUint32(hdr[4:], snapshotV2)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(cfg.K))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(cfg.NBits))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(cfg.M))
	binary.LittleEndian.PutUint64(hdr[20:], uint64(cfg.DeltaT))
	binary.LittleEndian.PutUint32(hdr[28:], snapshotHash)
	if cfg.HolePunch {
		hdr[32] = 1
	}
	if started {
		hdr[33] = 1
	}
	// Bytes 34 and 35 were reserved-zero until the blocked-layout
	// release; they now carry the resolved index-derivation scheme and
	// bit layout. Older streams read as zero, which maps back to the
	// defaults, so every previously written snapshot keeps its meaning.
	// newFilter and AppendSnapshot write resolved configurations, so
	// these are never the zero defaults.
	hdr[34] = byte(cfg.HashScheme)
	hdr[35] = byte(cfg.Layout)
	binary.LittleEndian.PutUint32(hdr[36:], uint32(idx))
	binary.LittleEndian.PutUint64(hdr[40:], uint64(next))
	binary.LittleEndian.PutUint64(hdr[48:], cfg.Seed)
	return hdr
}

// ReadFilter reconstructs a filter from a WriteTo stream. The embedded
// configuration is authoritative; the returned filter continues rotating
// on the schedule the snapshot recorded.
//
// Robustness contract (held by FuzzReadFilter): any corrupt, truncated,
// or hostile input yields a descriptive error — never a panic, an
// unbounded allocation, or a filter whose later operations misbehave.
// Every byte is covered by the CRC32C trailer, so a snapshot that
// survived a torn write or bit rot is always rejected; callers should
// treat the error as a cold start, not a fatal condition. A version-1
// stream fails with ErrSnapshotVersion.
func ReadFilter(r io.Reader) (*Filter, error) {
	return ReadFilterWith(r, nil)
}

// ReadFilterWith is ReadFilter with the filter's bit vectors drawn from
// alloc (nil selects plain heap vectors). The tenant rehydration path
// uses it so a filter restored from a spill frame lands back in the
// arena it was evicted from. On any decode error vectors already carved
// from alloc are released before returning, so a rejected snapshot
// leaks no spans.
func ReadFilterWith(r io.Reader, alloc VectorAllocator) (*Filter, error) {
	f, err := readFilter(r, alloc)
	if err != nil && f != nil && alloc != nil {
		_ = f.ReleaseVectors(alloc)
	}
	if err != nil {
		return nil, err
	}
	return f, nil
}

//p2p:codec snapshotv2 decode
func readFilter(r io.Reader, alloc VectorAllocator) (*Filter, error) {
	crc := crc32.New(castagnoli)
	tee := io.TeeReader(r, crc)

	var hdr [snapshotHeaderLen]byte
	if _, err := io.ReadFull(tee, hdr[:]); err != nil {
		return nil, errfmt.Wrap("core: read snapshot header", err)
	}
	if got := binary.LittleEndian.Uint32(hdr[0:]); got != snapshotMagic {
		return nil, errfmt.Detail("core: bad snapshot magic "+hex(uint64(got)), ErrSnapshotMagic)
	}
	if version := binary.LittleEndian.Uint32(hdr[4:]); version != snapshotV2 {
		return nil, errfmt.Detail("core: unsupported snapshot version "+strconv.FormatUint(uint64(version), 10), ErrSnapshotVersion)
	}
	if hash := binary.LittleEndian.Uint32(hdr[28:]); hash > snapshotHash {
		return nil, errfmt.Detail("core: unknown snapshot hash construction "+strconv.FormatUint(uint64(hash), 10), ErrSnapshotGeometry)
	}
	cfg := Config{
		K:          int(binary.LittleEndian.Uint32(hdr[8:])),
		NBits:      uint(binary.LittleEndian.Uint32(hdr[12:])),
		M:          int(binary.LittleEndian.Uint32(hdr[16:])),
		DeltaT:     time.Duration(binary.LittleEndian.Uint64(hdr[20:])),
		HashScheme: hashes.Scheme(hdr[34]),
		Layout:     hashes.Layout(hdr[35]),
		HolePunch:  hdr[32] == 1,
		Seed:       binary.LittleEndian.Uint64(hdr[48:]),
	}
	if cfg.K > maxSnapshotK {
		return nil, errfmt.Detail("core: implausible snapshot geometry: k="+strconv.Itoa(cfg.K)+" exceeds "+strconv.Itoa(maxSnapshotK), ErrSnapshotGeometry)
	}
	// M is capped before New runs because the filter pre-sizes its batch
	// hash scratch proportionally to M — an unchecked corrupt header
	// could demand an absurd allocation before the checksum is verified.
	if cfg.M > maxSnapshotM {
		return nil, errfmt.Detail("core: implausible snapshot geometry: m="+strconv.Itoa(cfg.M)+" exceeds "+strconv.Itoa(maxSnapshotM), ErrSnapshotGeometry)
	}
	if cfg.K > 0 && cfg.NBits > 0 && cfg.NBits <= 32 {
		if bytes := (int64(cfg.K) << cfg.NBits) / 8; bytes > maxSnapshotBytes {
			return nil, errfmt.Detail("core: implausible snapshot geometry: "+strconv.FormatInt(bytes, 10)+" vector bytes exceed "+strconv.Itoa(maxSnapshotBytes), ErrSnapshotGeometry)
		}
	}
	f, err := newFilter(cfg, alloc)
	if err != nil {
		return nil, errfmt.Detail("core: snapshot config: "+err.Error(), ErrSnapshotCorrupt)
	}
	f.started = hdr[33] == 1
	f.idx = int(binary.LittleEndian.Uint32(hdr[36:]))
	if f.idx < 0 || f.idx >= cfg.K {
		return f, errfmt.Detail("core: snapshot index "+strconv.Itoa(f.idx)+" out of range", ErrSnapshotCorrupt)
	}
	f.next = time.Duration(binary.LittleEndian.Uint64(hdr[40:]))

	for _, v := range f.vectors {
		if _, err := v.ReadFrame(tee); err != nil {
			return f, errfmt.Wrap("core: read snapshot vectors", err)
		}
	}
	want := crc.Sum32()
	var trailer [snapshotTrailerLen]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return f, errfmt.Wrap("core: read snapshot trailer", err)
	}
	if got := binary.LittleEndian.Uint32(trailer[:]); got != want {
		return f, errfmt.Detail("core: snapshot checksum mismatch: stored "+hex(uint64(got))+", computed "+hex(uint64(want)), ErrSnapshotChecksum)
	}
	return f, nil
}
