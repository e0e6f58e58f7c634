package p2pbound

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"p2pbound/internal/core"
	"p2pbound/internal/errfmt"
)

// Tenant snapshot framing ("BMTM"): the whole-manager analogue of a
// Limiter SaveState stream. One frame per registered tenant carries the
// subscriber's identity, its suspended rotation/clamp/rng state, and —
// only for tenants whose filters still hold marks — an embedded v2 core
// snapshot; everything is covered by a CRC32C trailer. In process a
// tenant's filter is live or spilled as raw words; the v2 form exists
// only in these frames, rendered at save and parsed back to raw words
// at restore. Decoding is staged: the entire stream is validated
// (structure, checksum, tenant identity, embedded-filter geometry, rng
// encoding) before any tenant is touched, so a restore either applies
// completely or leaves the manager exactly as it was.
//
// Like the core format, tenant counters are NOT persisted: a restore
// folds each tenant's live counters into its limiter base, so Stats
// stays monotone across save/restore cycles instead of rewinding to
// boot-time values.
const (
	tenantSnapshotMagic   = uint32('B') | uint32('M')<<8 | uint32('T')<<16 | uint32('M')<<24
	tenantSnapshotVersion = 1

	// tenantFlagState marks a frame carrying suspended rotation/rng
	// state (any tenant hydrated at least once); tenantFlagBitmap marks
	// an embedded core snapshot (a filter that still held marks).
	tenantFlagState  = 1 << 0
	tenantFlagBitmap = 1 << 1

	// tenantFrameMin is the smallest possible frame (empty id, no
	// state): id length + prefix + flags. Used to bound the declared
	// tenant count against the stream length before allocating.
	tenantFrameMin = 4 + 4 + 1
)

// Typed sentinels for tenant snapshot decoding, matchable with
// errors.Is. A failed RestoreTenantState always unwraps to exactly one
// of these (or to ErrGeometryMismatch for a prefix-width or embedded
// filter geometry conflict) and leaves the manager untouched. An
// embedded filter the core reader rejects is ErrTenantSnapshotCorrupt
// and also unwraps to the core.ErrSnapshot* cause.
var (
	// ErrTenantSnapshotMagic: the stream does not begin with the tenant
	// snapshot magic — not a tenant snapshot at all.
	ErrTenantSnapshotMagic = errors.New("p2pbound: bad tenant snapshot magic")
	// ErrTenantSnapshotVersion: a tenant snapshot, but a format version
	// this build does not speak.
	ErrTenantSnapshotVersion = errors.New("p2pbound: unsupported tenant snapshot version")
	// ErrTenantSnapshotCorrupt: the structure is internally inconsistent
	// — truncated frames, impossible lengths, undefined flags, malformed
	// embedded state.
	ErrTenantSnapshotCorrupt = errors.New("p2pbound: corrupt tenant snapshot")
	// ErrTenantSnapshotChecksum: well-formed structure, but the CRC32C
	// trailer does not match the stream contents.
	ErrTenantSnapshotChecksum = errors.New("p2pbound: tenant snapshot checksum mismatch")
	// ErrUnknownTenant: the snapshot names a tenant this manager has not
	// registered. Registration is configuration, not state; restore
	// refuses to invent tenants.
	ErrUnknownTenant = errors.New("p2pbound: snapshot names an unregistered tenant")
)

// tenantFrame is one per-tenant record: the encode side snapshots a
// tenant into it, the decode side holds it between the validation and
// apply stages of a restore.
//
//p2p:codec
type tenantFrame struct {
	id     string
	prefix uint32
	flags  byte
	rot    core.RotationState
	rng    []byte
	bitmap []byte
}

// SaveTenantState serializes every registered tenant's suspended state
// so a restarted edge process can resume admitting the flows each
// subscriber's filter was tracking. It is a control-plane call: it
// must not run concurrently with packet processing (quiesce or Drain a
// TenantPipeline first). Hydrated tenants are serialized in place
// without being evicted.
//
//p2p:confined tenantshard entry
func (m *TenantManager) SaveTenantState(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var buf bytes.Buffer
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], tenantSnapshotMagic)
	binary.LittleEndian.PutUint32(hdr[4:], tenantSnapshotVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(m.cfg.PrefixBits))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(m.tenants)))
	buf.Write(hdr[:])
	var sc saveScratch
	for _, t := range m.tenants {
		fr, err := m.snapshotTenantFrame(t, &sc)
		if err != nil {
			return fmt.Errorf("p2pbound: save tenant state: tenant %q: %w", t.id, err)
		}
		appendTenantFrame(&buf, &fr)
	}
	sum := crc32.Checksum(buf.Bytes(), tenantCastagnoli)
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], sum)
	buf.Write(trailer[:])
	if _, err := w.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("p2pbound: save tenant state: %w", err)
	}
	return nil
}

var tenantCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// saveScratch is reused across the frames of one save: the words of a
// hydrated filter and the rendered v2 bitmap, which appendTenantFrame
// copies out before the next frame.
type saveScratch struct {
	words  []uint64
	bitmap []byte
}

// snapshotTenantFrame captures one tenant's suspended state into a
// frame, reading live filter state for hydrated tenants and the spilled
// record otherwise. Both render the embedded v2 bitmap from raw words,
// so a tenant saves the same bytes whether or not it was evicted first.
//
//p2p:confined tenantshard
func (m *TenantManager) snapshotTenantFrame(t *tenant, sc *saveScratch) (tenantFrame, error) {
	fr := tenantFrame{id: t.id, prefix: uint32(t.net.Prefix)}
	cfg := m.coreCfg
	var words []uint64
	switch {
	case t.hydrated:
		f := t.lim.filter.Load()
		fr.flags = tenantFlagState
		fr.rot = f.RotationState()
		b, err := f.RNGState()
		if err != nil {
			return fr, err
		}
		fr.rng = b
		if !f.Empty() {
			if len(sc.words) != f.Words() {
				sc.words = make([]uint64, f.Words())
			}
			f.SpillWords(sc.words)
			words, cfg = sc.words, f.Config()
		}
	case t.spilled:
		fr.flags = tenantFlagState
		fr.rot = t.rot
		fr.rng = t.rng
		words, cfg.Seed = t.words, t.wordsSeed
	}
	if words != nil {
		sc.bitmap = core.AppendSnapshot(sc.bitmap[:0], cfg, fr.rot, words)
		fr.flags |= tenantFlagBitmap
		fr.bitmap = sc.bitmap
	}
	return fr, nil
}

// appendTenantFrame encodes one frame into buf; the exact inverse of
// tenantDecoder.frame.
//
//p2p:codec bmtm encode
func appendTenantFrame(buf *bytes.Buffer, fr *tenantFrame) {
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(fr.id)))
	buf.Write(u32[:])
	buf.WriteString(fr.id)
	binary.LittleEndian.PutUint32(u32[:], fr.prefix)
	buf.Write(u32[:])
	buf.WriteByte(fr.flags)
	if fr.flags&tenantFlagState != 0 {
		if fr.rot.Started {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
		binary.LittleEndian.PutUint32(u32[:], uint32(fr.rot.Index))
		buf.Write(u32[:])
		var u64 [8]byte
		binary.LittleEndian.PutUint64(u64[:], uint64(fr.rot.Next))
		buf.Write(u64[:])
		binary.LittleEndian.PutUint64(u64[:], uint64(fr.rot.LastTS))
		buf.Write(u64[:])
		binary.LittleEndian.PutUint32(u32[:], uint32(len(fr.rng)))
		buf.Write(u32[:])
		buf.Write(fr.rng)
	}
	if fr.flags&tenantFlagBitmap != 0 {
		binary.LittleEndian.PutUint32(u32[:], uint32(len(fr.bitmap)))
		buf.Write(u32[:])
		buf.Write(fr.bitmap)
	}
}

// RestoreTenantState replaces every snapshotted tenant's suspended
// state with the snapshot's. The whole stream is validated first —
// structure, checksum, tenant identity, prefix width, embedded filter
// geometry — and a failure on any frame rejects the entire snapshot,
// leaving the manager untouched (the property FuzzTenantSnapshot pins).
// On success each named tenant is moved to the spilled state carrying
// the snapshot's filter as raw words, to be rehydrated verdict-exactly
// by its next packet; currently hydrated filters are folded (counters
// stay monotone) and their shells pooled. Registered tenants absent from
// the snapshot are left as they are. Control-plane call, like
// SaveTenantState.
//
//p2p:confined tenantshard entry
func (m *TenantManager) RestoreTenantState(r io.Reader) error {
	b, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("p2pbound: restore tenant state: %w", err)
	}
	frames, prefixBits, err := decodeTenantSnapshot(b)
	if err != nil {
		return fmt.Errorf("p2pbound: restore tenant state: %w", err)
	}
	if prefixBits != m.cfg.PrefixBits {
		return fmt.Errorf("p2pbound: restore tenant state: %w: snapshot /%d subscribers, manager /%d",
			ErrGeometryMismatch, prefixBits, m.cfg.PrefixBits)
	}
	// Stage 2a: structural validation that needs no tenant identity —
	// rotation bounds, rng encoding, embedded filter geometry — and the
	// raw words of every embedded filter. This is the expensive part
	// (ReadFilter re-parses every embedded bitmap), and it depends only
	// on m.coreCfg, which is immutable after construction, so it runs
	// before the manager lock is taken: the p2pvet lockhold analyzer
	// proves no I/O happens under m.mu.
	spills := make([]restoredSpill, len(frames))
	for i := range frames {
		fr := &frames[i]
		if fr.flags&tenantFlagState != 0 {
			if fr.rot.Index < 0 || fr.rot.Index >= m.coreCfg.K {
				return errfmt.Detail("p2pbound: restore tenant state: tenant "+fr.id+" rotation index out of range", ErrTenantSnapshotCorrupt)
			}
			if err := core.ValidateRNGState(fr.rng); err != nil {
				return errfmt.Detail("p2pbound: restore tenant state: tenant "+fr.id+": "+err.Error(), ErrTenantSnapshotCorrupt)
			}
		}
		if fr.flags&tenantFlagBitmap != 0 {
			f, err := core.ReadFilter(bytes.NewReader(fr.bitmap))
			if err != nil {
				// The frame is corrupt, and the core sentinel says why.
				return errfmt.Detail("p2pbound: restore tenant state: tenant "+fr.id+" bitmap: "+err.Error(), errors.Join(ErrTenantSnapshotCorrupt, err))
			}
			if err := geometryMismatch(m.coreCfg, f.Config()); err != nil {
				return fmt.Errorf("p2pbound: restore tenant state: tenant %q: %w", fr.id, err)
			}
			spills[i].words = make([]uint64, f.Words())
			f.SpillWords(spills[i].words)
			spills[i].seed = f.Config().Seed
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// Stage 2b: resolve and validate every frame's identity against this
	// manager before touching anything.
	for i := range frames {
		fr := &frames[i]
		t := m.byID[fr.id]
		if t == nil {
			return fmt.Errorf("p2pbound: restore tenant state: %w: %q", ErrUnknownTenant, fr.id)
		}
		if fr.prefix != uint32(t.net.Prefix) {
			return errfmt.Detail("p2pbound: restore tenant state: tenant "+fr.id+" prefix mismatch", ErrTenantSnapshotCorrupt)
		}
	}
	// Stage 3: apply. Nothing below can fail.
	for i := range frames {
		fr := &frames[i]
		t := m.byID[fr.id]
		m.applyTenantFrame(t, fr, &spills[i])
	}
	return nil
}

// restoredSpill is a validated frame's embedded filter in raw form: the
// words of its vectors (nil without a bitmap) and the seed its header
// records.
type restoredSpill struct {
	words []uint64
	seed  uint64
}

// applyTenantFrame moves one validated frame into its tenant: the
// current filter (hydrated or spilled) is discarded in favour of the
// snapshot's, counters folding into the limiter base on the way out.
// The restored words join the shard's spill pool once the tenant
// rehydrates.
//
//p2p:confined tenantshard
func (m *TenantManager) applyTenantFrame(t *tenant, fr *tenantFrame, sp *restoredSpill) {
	sh := t.sh
	if t.hydrated {
		sh.detach(t)
	}
	sh.dropWords(t)
	if fr.flags&tenantFlagState != 0 {
		t.spilled = true
		t.rot = fr.rot
		t.rng = append(t.rng[:0], fr.rng...)
	} else {
		t.spilled = false
		t.rot = core.RotationState{}
		t.rng = nil
	}
	if sp.words != nil {
		t.words = sp.words
		t.wordsSeed = sp.seed
		sh.spillBytes.Add(8 * int64(len(sp.words)))
	}
}

// decodeTenantSnapshot performs stage 1 of a restore: structural and
// checksum validation of the raw stream, independent of any manager.
// Every return path that is not a fully decoded frame list unwraps to
// one of the tenant snapshot sentinels.
func decodeTenantSnapshot(b []byte) ([]tenantFrame, int, error) {
	if len(b) < 16+4 {
		return nil, 0, errfmt.Detail("p2pbound: tenant snapshot truncated", ErrTenantSnapshotCorrupt)
	}
	if got := binary.LittleEndian.Uint32(b[0:]); got != tenantSnapshotMagic {
		return nil, 0, errfmt.Detail(fmt.Sprintf("p2pbound: bad tenant snapshot magic %#x", got), ErrTenantSnapshotMagic)
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != tenantSnapshotVersion {
		return nil, 0, errfmt.Detail(fmt.Sprintf("p2pbound: unsupported tenant snapshot version %d", v), ErrTenantSnapshotVersion)
	}
	body, trailer := b[:len(b)-4], b[len(b)-4:]
	if got, want := binary.LittleEndian.Uint32(trailer), crc32.Checksum(body, tenantCastagnoli); got != want {
		return nil, 0, errfmt.Detail(fmt.Sprintf("p2pbound: tenant snapshot checksum mismatch: stored %#x, computed %#x", got, want), ErrTenantSnapshotChecksum)
	}
	prefixBits := int(binary.LittleEndian.Uint32(b[8:]))
	if prefixBits < 1 || prefixBits > 32 {
		return nil, 0, errfmt.Detail("p2pbound: tenant snapshot prefix bits out of range", ErrTenantSnapshotCorrupt)
	}
	count := int(binary.LittleEndian.Uint32(b[12:]))
	rest := body[16:]
	if count < 0 || count > len(rest)/tenantFrameMin {
		return nil, 0, errfmt.Detail("p2pbound: tenant snapshot count exceeds stream", ErrTenantSnapshotCorrupt)
	}
	frames := make([]tenantFrame, 0, count)
	seen := make(map[string]bool, count)
	d := tenantDecoder{b: rest}
	for i := 0; i < count; i++ {
		fr, err := d.frame()
		if err != nil {
			return nil, 0, err
		}
		if seen[fr.id] {
			return nil, 0, errfmt.Detail("p2pbound: tenant snapshot repeats tenant "+fr.id, ErrTenantSnapshotCorrupt)
		}
		seen[fr.id] = true
		frames = append(frames, fr)
	}
	if len(d.b) != 0 {
		return nil, 0, errfmt.Detail("p2pbound: tenant snapshot has trailing bytes", ErrTenantSnapshotCorrupt)
	}
	return frames, prefixBits, nil
}

// tenantDecoder is a bounds-checked cursor over the frame section.
type tenantDecoder struct {
	b []byte
}

func (d *tenantDecoder) u32() (uint32, error) {
	if len(d.b) < 4 {
		return 0, errfmt.Detail("p2pbound: tenant snapshot truncated", ErrTenantSnapshotCorrupt)
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v, nil
}

func (d *tenantDecoder) u64() (uint64, error) {
	if len(d.b) < 8 {
		return 0, errfmt.Detail("p2pbound: tenant snapshot truncated", ErrTenantSnapshotCorrupt)
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v, nil
}

func (d *tenantDecoder) byte() (byte, error) {
	if len(d.b) < 1 {
		return 0, errfmt.Detail("p2pbound: tenant snapshot truncated", ErrTenantSnapshotCorrupt)
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v, nil
}

func (d *tenantDecoder) bytes(n uint32) ([]byte, error) {
	if uint32(len(d.b)) < n {
		return nil, errfmt.Detail("p2pbound: tenant snapshot truncated", ErrTenantSnapshotCorrupt)
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v, nil
}

// maxTenantIDLen bounds a frame's id so a corrupt length field cannot
// force a giant allocation before the bounds check.
const maxTenantIDLen = 4096

// frame decodes one per-tenant record; the exact inverse of
// appendTenantFrame.
//
//p2p:codec bmtm decode
func (d *tenantDecoder) frame() (tenantFrame, error) {
	var fr tenantFrame
	idLen, err := d.u32()
	if err != nil {
		return fr, err
	}
	if idLen > maxTenantIDLen {
		return fr, errfmt.Detail("p2pbound: tenant snapshot id length implausible", ErrTenantSnapshotCorrupt)
	}
	id, err := d.bytes(idLen)
	if err != nil {
		return fr, err
	}
	fr.id = string(id)
	if fr.prefix, err = d.u32(); err != nil {
		return fr, err
	}
	if fr.flags, err = d.byte(); err != nil {
		return fr, err
	}
	if fr.flags&^(tenantFlagState|tenantFlagBitmap) != 0 {
		return fr, errfmt.Detail("p2pbound: tenant snapshot has undefined flags", ErrTenantSnapshotCorrupt)
	}
	if fr.flags&tenantFlagBitmap != 0 && fr.flags&tenantFlagState == 0 {
		return fr, errfmt.Detail("p2pbound: tenant snapshot bitmap without rotation state", ErrTenantSnapshotCorrupt)
	}
	if fr.flags&tenantFlagState != 0 {
		started, err := d.byte()
		if err != nil {
			return fr, err
		}
		if started > 1 {
			return fr, errfmt.Detail("p2pbound: tenant snapshot started flag out of range", ErrTenantSnapshotCorrupt)
		}
		fr.rot.Started = started == 1
		idx, err := d.u32()
		if err != nil {
			return fr, err
		}
		fr.rot.Index = int(int32(idx))
		next, err := d.u64()
		if err != nil {
			return fr, err
		}
		fr.rot.Next = time.Duration(next)
		last, err := d.u64()
		if err != nil {
			return fr, err
		}
		fr.rot.LastTS = time.Duration(last)
		rngLen, err := d.u32()
		if err != nil {
			return fr, err
		}
		if rngLen > 64 {
			return fr, errfmt.Detail("p2pbound: tenant snapshot rng state implausible", ErrTenantSnapshotCorrupt)
		}
		if fr.rng, err = d.bytes(rngLen); err != nil {
			return fr, err
		}
	}
	if fr.flags&tenantFlagBitmap != 0 {
		bmLen, err := d.u32()
		if err != nil {
			return fr, err
		}
		if fr.bitmap, err = d.bytes(bmLen); err != nil {
			return fr, err
		}
	}
	return fr, nil
}
