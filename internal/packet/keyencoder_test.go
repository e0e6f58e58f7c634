package packet

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

// TestKeyWordsMatchBytes property: KeyWords/HolePunchKeyWords must equal
// the little-endian loads of bytes [0,8) and [len-8,len) of the
// canonical key encodings — the identity that lets the one-shot hash
// consume socket-pair fields directly and still hash exactly the key
// bytes.
func TestKeyWordsMatchBytes(t *testing.T) {
	f := func(proto uint8, sa, da uint32, sp, dp uint16) bool {
		s := SocketPair{Proto: Proto(proto), SrcAddr: Addr(sa), SrcPort: sp, DstAddr: Addr(da), DstPort: dp}
		full := s.AppendKey(nil)
		a, b := s.KeyWords()
		if a != binary.LittleEndian.Uint64(full[:8]) || b != binary.LittleEndian.Uint64(full[len(full)-8:]) {
			return false
		}
		hpk := s.AppendHolePunchKey(nil)
		a, b = s.HolePunchKeyWords()
		return a == binary.LittleEndian.Uint64(hpk[:8]) && b == binary.LittleEndian.Uint64(hpk[len(hpk)-8:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestKeyEncoderMatchesAppendKey property: the encoder's reusable-buffer
// output is byte-identical to the canonical AppendKey/AppendHolePunchKey
// encodings in both modes — it is the single shared key builder, not a
// second encoding.
func TestKeyEncoderMatchesAppendKey(t *testing.T) {
	full := NewKeyEncoder(false)
	hp := NewKeyEncoder(true)
	f := func(proto uint8, sa, da uint32, sp, dp uint16) bool {
		s := SocketPair{Proto: Proto(proto), SrcAddr: Addr(sa), SrcPort: sp, DstAddr: Addr(da), DstPort: dp}
		return bytes.Equal(full.Outbound(s), s.AppendKey(nil)) &&
			bytes.Equal(hp.Outbound(s), s.AppendHolePunchKey(nil))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestKeyEncoderHolePunchPrefix: the hole-punch key is exactly the first
// HolePunchKeySize bytes of the full key — the structural fact that lets
// one fixed buffer serve both modes.
func TestKeyEncoderHolePunchPrefix(t *testing.T) {
	full := NewKeyEncoder(false)
	hp := NewKeyEncoder(true)
	s := SocketPair{Proto: UDP, SrcAddr: 0x8c700001, SrcPort: 51413, DstAddr: 0x01020304, DstPort: 6881}
	fk := append([]byte(nil), full.Outbound(s)...)
	hk := hp.Outbound(s)
	if len(fk) != KeySize || len(hk) != HolePunchKeySize {
		t.Fatalf("key lengths %d/%d, want %d/%d", len(fk), len(hk), KeySize, HolePunchKeySize)
	}
	if !bytes.Equal(hk, fk[:HolePunchKeySize]) {
		t.Fatalf("hole-punch key %x is not a prefix of full key %x", hk, fk)
	}
}

// TestKeyEncoderBufferReuse: successive calls overwrite the same
// storage; the previously returned slice observes the new encoding.
// Callers must consume the key before the next call — the documented
// contract that keeps the hot path allocation-free.
func TestKeyEncoderBufferReuse(t *testing.T) {
	e := NewKeyEncoder(false)
	a := SocketPair{Proto: TCP, SrcAddr: 1, SrcPort: 2, DstAddr: 3, DstPort: 4}
	b := SocketPair{Proto: UDP, SrcAddr: 5, SrcPort: 6, DstAddr: 7, DstPort: 8}
	first := e.Outbound(a)
	second := e.Outbound(b)
	if !bytes.Equal(first, second) {
		t.Fatal("encoder did not reuse its buffer")
	}
	if !bytes.Equal(second, b.AppendKey(nil)) {
		t.Fatal("reused buffer does not hold the latest encoding")
	}
}
