package offload

import (
	"encoding/binary"
	"io"
	"strconv"
	"sync/atomic"

	"p2pbound/internal/errfmt"
)

// WriteTo serializes a seqlock-coherent snapshot of the map as the
// little-endian image of its word array, suitable for OpenBytes or an
// external consumer. Each section is copied under its generation — the
// copy retries until a read of the generation brackets the section
// contents unchanged — so the written image never mixes two
// publications even while publishers are running. It implements
// io.WriterTo; the daemon's -offload-map mode feeds it through the
// same atomic tmp+rename+fsync publication as state snapshots.
func (m *Map) WriteTo(w io.Writer) (int64, error) {
	buf := make([]byte, m.Size())
	// Header and directory words are setup-time constants; copy them
	// atomically anyway so WriteTo may overlap SetSectionKey without a
	// race report.
	fixed := headerWords + len(m.secs)*dirEntryWords
	for i := 0; i < fixed; i++ {
		binary.LittleEndian.PutUint64(buf[i*8:], atomic.LoadUint64(&m.words[i]))
	}
	for s := range m.secs {
		base := m.sectionBase(s)
		for {
			g1 := atomic.LoadUint64(&m.words[base+secGen])
			if g1&1 != 0 {
				continue
			}
			binary.LittleEndian.PutUint64(buf[(base+secGen)*8:], g1)
			for i := base + 1; i < base+m.secWords; i++ {
				binary.LittleEndian.PutUint64(buf[i*8:], atomic.LoadUint64(&m.words[i]))
			}
			if atomic.LoadUint64(&m.words[base+secGen]) == g1 {
				break
			}
		}
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// OpenBytes reconstructs a probe-ready map from a WriteTo image,
// validating every structural invariant before any use: magic,
// version, geometry (through the same resolution rules the filter
// applies), exact length, directory offsets, route-key ordering,
// section generations (an odd generation means the image was torn
// mid-publish and is rejected), current-index ranges, and flag bits.
// Any invalid input yields one of the ErrMap* sentinels wrapped with
// detail — never a panic, an unbounded allocation, or a map whose
// probes misbehave. The returned map is read-only: probe it with
// NewFastPath; Publish on it is refused (ErrMapReadOnly).
//
//p2p:codec offloadmap decode
func OpenBytes(data []byte) (*Map, error) {
	if len(data) < headerWords*8 || len(data)%8 != 0 {
		return nil, errfmt.Detail("offload: "+strconv.Itoa(len(data))+" bytes", ErrMapTruncated)
	}
	word := func(i int) uint64 { return binary.LittleEndian.Uint64(data[i*8:]) }
	if got := word(hdrMagic); got != mapMagic {
		return nil, errfmt.Detail("offload: magic 0x"+strconv.FormatUint(got, 16), ErrMapMagic)
	}
	if v := word(hdrVersion); v != mapVersion {
		return nil, errfmt.Detail("offload: version "+strconv.FormatUint(v, 10), ErrMapVersion)
	}
	g, err := unpackGeometry(word(hdrGeom))
	if err != nil {
		return nil, err
	}
	if _, err := g.validate(); err != nil {
		return nil, err
	}
	wpv := g.vecWords()
	if got := word(hdrVecWords); got != uint64(wpv) {
		return nil, errfmt.Detail("offload: words/vector "+strconv.FormatUint(got, 10)+" != "+strconv.Itoa(wpv), ErrMapGeometry)
	}
	sections := word(hdrSections)
	if sections < 1 || sections > maxMapSections {
		return nil, errfmt.Detail("offload: sections="+strconv.FormatUint(sections, 10), ErrMapGeometry)
	}
	prefixBits := word(hdrPrefix)
	if prefixBits > 32 {
		return nil, errfmt.Detail("offload: prefix bits="+strconv.FormatUint(prefixBits, 10), ErrMapGeometry)
	}
	if word(hdrPrefix+1) != 0 || word(hdrPrefix+2) != 0 {
		return nil, errfmt.Detail("offload: reserved header words", ErrMapCorrupt)
	}
	secWords := sectionHeaderWords + g.K*wpv
	total := headerWords + int(sections)*(dirEntryWords+secWords)
	if len(data) != total*8 {
		return nil, errfmt.Detail("offload: "+strconv.Itoa(len(data))+" bytes != "+strconv.Itoa(total*8)+" for declared geometry", ErrMapTruncated)
	}
	m := &Map{
		words:       make([]uint64, total),
		geom:        g,
		wordsPerVec: wpv,
		secWords:    secWords,
		prefixBits:  int(prefixBits),
		secs:        make([]Section, sections),
		opened:      true,
	}
	for i := range m.words {
		m.words[i] = word(i)
	}
	// tailMask zeroes the invalid high bits of a sub-word vector
	// (NBits < 6); a publisher never writes them, so set bits there mean
	// corruption.
	tailMask := ^uint64(0)
	if g.NBits < 6 {
		tailMask = 1<<(1<<g.NBits) - 1
	}
	var prevKey uint32
	for s := 0; s < int(sections); s++ {
		e := headerWords + s*dirEntryWords
		key := m.words[e]
		if key > uint64(^uint32(0)) {
			return nil, errfmt.Detail("offload: section "+strconv.Itoa(s)+" route key overflow", ErrMapCorrupt)
		}
		if prefixBits > 0 {
			if s > 0 && uint32(key) <= prevKey {
				return nil, errfmt.Detail("offload: directory keys not strictly ascending", ErrMapCorrupt)
			}
			prevKey = uint32(key)
		}
		base := m.sectionBase(s)
		if m.words[e+2] != uint64(base) {
			return nil, errfmt.Detail("offload: section "+strconv.Itoa(s)+" offset "+strconv.FormatUint(m.words[e+2], 10)+" != "+strconv.Itoa(base), ErrMapCorrupt)
		}
		if gen := m.words[base+secGen]; gen&1 != 0 {
			return nil, errfmt.Detail("offload: section "+strconv.Itoa(s)+" generation "+strconv.FormatUint(gen, 10), ErrMapTorn)
		}
		if cur := m.words[base+secCurIdx]; cur >= uint64(g.K) {
			return nil, errfmt.Detail("offload: section "+strconv.Itoa(s)+" current index "+strconv.FormatUint(cur, 10), ErrMapCorrupt)
		}
		if flags := m.words[base+secFlags]; flags&^uint64(flagLive) != 0 {
			return nil, errfmt.Detail("offload: section "+strconv.Itoa(s)+" flags 0x"+strconv.FormatUint(m.words[base+secFlags], 16), ErrMapCorrupt)
		}
		if tailMask != ^uint64(0) {
			for v := 0; v < g.K; v++ {
				if m.words[base+sectionHeaderWords+v*wpv]&^tailMask != 0 {
					return nil, errfmt.Detail("offload: section "+strconv.Itoa(s)+" vector "+strconv.Itoa(v)+" has bits beyond 2^n", ErrMapCorrupt)
				}
			}
		}
		m.secs[s] = Section{m: m, base: base}
	}
	return m, nil
}
