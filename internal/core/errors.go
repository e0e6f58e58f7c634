package core

import "errors"

// Typed snapshot-rejection sentinels. ReadFilter wraps each rejection
// in a diagnostic message that unwraps (errors.Is) to exactly one of
// these, so operators and the replication layer can distinguish "this
// file is not a snapshot" from "this snapshot rotted on disk" from
// "this snapshot demands an implausible allocation" without string
// matching. The corruption fuzz tests assert the mapping.
var (
	// ErrSnapshotMagic: the stream does not begin with the snapshot
	// magic — not a snapshot at all.
	ErrSnapshotMagic = errors.New("core: bad snapshot magic")
	// ErrSnapshotVersion: a snapshot, but a format version this build
	// does not read.
	ErrSnapshotVersion = errors.New("core: unsupported snapshot version")
	// ErrSnapshotGeometry: the header's geometry exceeds the
	// allocation caps (k, m, or total vector bytes), or names a hash
	// construction this build does not have — corrupt or hostile,
	// rejected before any allocation.
	ErrSnapshotGeometry = errors.New("core: implausible snapshot geometry")
	// ErrSnapshotCorrupt: the structure is internally inconsistent — a
	// configuration New rejects, or a rotation index outside [0, k).
	ErrSnapshotCorrupt = errors.New("core: corrupt snapshot structure")
	// ErrSnapshotChecksum: the CRC32C trailer does not match the
	// stream — a torn write, truncation inside the covered region, or
	// bit rot.
	ErrSnapshotChecksum = errors.New("core: snapshot checksum mismatch")
)
