package p2pbound

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
	"time"

	"p2pbound/internal/core"
	"p2pbound/internal/hashes"
	"p2pbound/internal/offload"
)

// TestRetiredGeometryRejected: the layout selects the index derivation,
// so the classic layout with the one-shot scheme is no geometry any
// more. Every entry point that builds or reads a filter geometry must
// refuse it exactly as it refuses the blocked layout with the per-index
// scheme: the constructors with an error, and each reader with the
// sentinel it returns for that older impossible pair.
func TestRetiredGeometryRejected(t *testing.T) {
	retired := []struct {
		name   string
		scheme hashes.Scheme
		layout hashes.Layout
	}{
		{"classic-oneshot", hashes.SchemeOneShot, hashes.LayoutClassic},
		{"blocked-perindex", hashes.SchemePerIndex, hashes.LayoutBlocked},
	}
	base := core.Config{K: 2, NBits: 8, M: 2, DeltaT: time.Hour}

	// The images the readers get: valid classic ones with the scheme and
	// layout bytes rewritten. A v2 snapshot keeps them in header bytes 34
	// and 35; an offload map packs them into bytes 6 and 7 of its third
	// header word.
	var snap bytes.Buffer
	classic, err := core.New(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := classic.WriteTo(&snap); err != nil {
		t.Fatal(err)
	}
	var image bytes.Buffer
	m, err := offload.NewMap(offload.GeometryOf(base), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteTo(&image); err != nil {
		t.Fatal(err)
	}
	patch := func(b []byte, at int, scheme hashes.Scheme, layout hashes.Layout) []byte {
		b = bytes.Clone(b)
		b[at], b[at+1] = byte(scheme), byte(layout)
		return b
	}

	// A tenant snapshot whose every embedded filter carries the pair,
	// resealed so that only the embedded header is wrong.
	tenants := fuzzTenantManager(t)
	var saved bytes.Buffer
	if err := tenants.SaveTenantState(&saved); err != nil {
		t.Fatal(err)
	}
	tenantSnapshot := func(scheme hashes.Scheme, layout hashes.Layout) []byte {
		frames, _, err := decodeTenantSnapshot(saved.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		body.Write(saved.Bytes()[:16])
		embedded := 0
		for i := range frames {
			if fr := &frames[i]; fr.flags&tenantFlagBitmap != 0 {
				fr.bitmap = patch(fr.bitmap, 34, scheme, layout)
				embedded++
			}
			appendTenantFrame(&body, &frames[i])
		}
		if embedded == 0 {
			t.Fatal("fixture embeds no filter")
		}
		return binary.LittleEndian.AppendUint32(body.Bytes(), crc32.Checksum(body.Bytes(), tenantCastagnoli))
	}

	for _, rc := range retired {
		cfg := base
		cfg.HashScheme, cfg.Layout = rc.scheme, rc.layout
		entries := []struct {
			name string
			err  error
			want []error // sentinels; none for the constructors
		}{
			{"New", second(New(Config{ClientNetwork: "140.112.0.0/16", HashScheme: HashScheme(rc.scheme), Layout: Layout(rc.layout)})), nil},
			{"core.New", second(core.New(cfg)), nil},
			{"core.NewIndexer", second(core.NewIndexer(cfg)), nil},
			{"offload.NewMap", second(offload.NewMap(offload.Geometry{K: cfg.K, NBits: cfg.NBits, M: cfg.M, Scheme: rc.scheme, Layout: rc.layout}, 1, 0)), []error{offload.ErrMapGeometry}},
			{"core.ReadFilter", second(core.ReadFilter(bytes.NewReader(patch(snap.Bytes(), 34, rc.scheme, rc.layout)))), []error{core.ErrSnapshotCorrupt}},
			{"offload.OpenBytes", second(offload.OpenBytes(patch(image.Bytes(), 2*8+6, rc.scheme, rc.layout))), []error{offload.ErrMapGeometry}},
			{"RestoreTenantState", tenants.RestoreTenantState(bytes.NewReader(tenantSnapshot(rc.scheme, rc.layout))), []error{ErrTenantSnapshotCorrupt, core.ErrSnapshotCorrupt}},
		}
		for _, e := range entries {
			if e.err == nil {
				t.Errorf("%s: %s accepted the pair", rc.name, e.name)
				continue
			}
			for _, s := range e.want {
				if !errors.Is(e.err, s) {
					t.Errorf("%s: %s: %v, want %v", rc.name, e.name, e.err, s)
				}
			}
		}
	}
	var after bytes.Buffer
	if err := tenants.SaveTenantState(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), after.Bytes()) {
		t.Fatal("a rejected restore changed the tenant manager")
	}
}

// second returns the error of a constructor's result pair.
func second[T any](_ T, err error) error { return err }
