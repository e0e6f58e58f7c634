package packet

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

// TestKeyWordsMatchBytes property: KeyWords/HolePunchKeyWords must equal
// the little-endian loads of bytes [0,8) and [len-8,len) of the
// canonical key encodings — the identity that lets the index hashes
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

func TestProtoString(t *testing.T) {
	tests := []struct {
		give Proto
		want string
	}{
		{TCP, "TCP"},
		{UDP, "UDP"},
		{Proto(47), "proto(47)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("Proto(%d).String() = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestAddrRoundTrip(t *testing.T) {
	tests := []struct {
		a, b, c, d byte
		want       string
	}{
		{0, 0, 0, 1, "0.0.0.1"},
		{10, 0, 0, 1, "10.0.0.1"},
		{140, 112, 3, 4, "140.112.3.4"},
		{255, 255, 255, 255, "255.255.255.255"},
	}
	for _, tt := range tests {
		if got := AddrFrom4(tt.a, tt.b, tt.c, tt.d).String(); got != tt.want {
			t.Errorf("AddrFrom4(%d, %d, %d, %d).String() = %q, want %q", tt.a, tt.b, tt.c, tt.d, got, tt.want)
		}
	}
}

func TestAddrFrom4(t *testing.T) {
	addr := AddrFrom4(140, 112, 1, 2)
	if got := addr.String(); got != "140.112.1.2" {
		t.Fatalf("AddrFrom4 = %s", got)
	}
}

func TestNetworkContains(t *testing.T) {
	net, err := ParseNetwork("140.112.0.0/16")
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		give Addr
		want bool
	}{
		{AddrFrom4(140, 112, 0, 1), true},
		{AddrFrom4(140, 112, 255, 255), true},
		{AddrFrom4(140, 113, 0, 1), false},
		{AddrFrom4(8, 8, 8, 8), false},
	}
	for _, tt := range tests {
		if got := net.Contains(tt.give); got != tt.want {
			t.Errorf("%s in %s = %v, want %v", tt.give, net, got, tt.want)
		}
	}
}

func TestNetworkString(t *testing.T) {
	net := CIDR(AddrFrom4(10, 0, 0, 0), 8)
	if got := net.String(); got != "10.0.0.0/8" {
		t.Fatalf("Network.String() = %q", got)
	}
}

func TestNetworkZeroBits(t *testing.T) {
	net := CIDR(AddrFrom4(10, 0, 0, 0), 0)
	if !net.Contains(AddrFrom4(8, 8, 8, 8)) {
		t.Fatal("a /0 network must contain every address")
	}
}

func TestParseNetworkErrors(t *testing.T) {
	for _, give := range []string{"", "140.112.0.0", "140.112.0.0/33", "::/64"} {
		if _, err := ParseNetwork(give); err == nil {
			t.Errorf("ParseNetwork(%q) succeeded, want error", give)
		}
	}
}

func TestSocketPairInverse(t *testing.T) {
	s := SocketPair{Proto: TCP, SrcAddr: 1, SrcPort: 2, DstAddr: 3, DstPort: 4}
	inv := s.Inverse()
	want := SocketPair{Proto: TCP, SrcAddr: 3, SrcPort: 4, DstAddr: 1, DstPort: 2}
	if inv != want {
		t.Fatalf("Inverse() = %+v, want %+v", inv, want)
	}
}

// TestSocketPairInverseInvolution property: the inverse of the inverse is
// the original pair.
func TestSocketPairInverseInvolution(t *testing.T) {
	f := func(proto uint8, sa, da uint32, sp, dp uint16) bool {
		s := SocketPair{Proto: Proto(proto), SrcAddr: Addr(sa), SrcPort: sp, DstAddr: Addr(da), DstPort: dp}
		return s.Inverse().Inverse() == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestKeyInjective property: distinct socket pairs produce distinct keys,
// and a pair and its inverse differ unless the pair is symmetric.
func TestKeyInjective(t *testing.T) {
	f := func(proto uint8, sa, da uint32, sp, dp uint16) bool {
		s := SocketPair{Proto: Proto(proto), SrcAddr: Addr(sa), SrcPort: sp, DstAddr: Addr(da), DstPort: dp}
		symmetric := sa == da && sp == dp
		return (s.Key() == s.Inverse().Key()) == symmetric
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyEncoding(t *testing.T) {
	s := SocketPair{Proto: TCP, SrcAddr: AddrFrom4(1, 2, 3, 4), SrcPort: 0x1234, DstAddr: AddrFrom4(5, 6, 7, 8), DstPort: 0x5678}
	key := s.Key()
	want := [KeySize]byte{6, 1, 2, 3, 4, 0x12, 0x34, 5, 6, 7, 8, 0x56, 0x78}
	if key != want {
		t.Fatalf("Key() = %v, want %v", key, want)
	}
}

// TestHolePunchKeyCorrespondence checks the Section 4.2 property the
// bitmap filter relies on: the outbound partial tuple of σ equals the
// partial tuple of σ̄ for the matching inbound packet.
func TestHolePunchKeyCorrespondence(t *testing.T) {
	f := func(proto uint8, sa, da uint32, sp, dp, rewrittenPort uint16) bool {
		out := SocketPair{Proto: Proto(proto), SrcAddr: Addr(sa), SrcPort: sp, DstAddr: Addr(da), DstPort: dp}
		// Inbound reply from the same remote host but any source port.
		in := SocketPair{Proto: Proto(proto), SrcAddr: Addr(da), SrcPort: rewrittenPort, DstAddr: Addr(sa), DstPort: sp}
		outKey := out.AppendHolePunchKey(nil)
		inKey := in.Inverse().AppendHolePunchKey(nil)
		return string(outKey) == string(inKey)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHolePunchKeySize(t *testing.T) {
	var s SocketPair
	if got := len(s.AppendHolePunchKey(nil)); got != HolePunchKeySize {
		t.Fatalf("hole-punch key length = %d, want %d", got, HolePunchKeySize)
	}
	if got := len(s.AppendKey(nil)); got != KeySize {
		t.Fatalf("full key length = %d, want %d", got, KeySize)
	}
}

func TestTCPFlags(t *testing.T) {
	tests := []struct {
		give TCPFlags
		want string
	}{
		{SYN, "S"},
		{SYN | ACK, "SA"},
		{FIN | ACK, "FA"},
		{RST, "R"},
		{0, "."},
		{FIN | SYN | RST | PSH | ACK | 1<<5, "FSRPAU"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("TCPFlags(%08b).String() = %q, want %q", tt.give, got, tt.want)
		}
	}
	if !(SYN | ACK).Has(SYN) || (SYN | ACK).Has(FIN) {
		t.Fatal("Has misbehaves")
	}
}

func TestClassify(t *testing.T) {
	net := CIDR(AddrFrom4(140, 112, 0, 0), 16)
	inside := AddrFrom4(140, 112, 9, 9)
	outside := AddrFrom4(9, 9, 9, 9)
	if got := Classify(SocketPair{SrcAddr: inside, DstAddr: outside}, net); got != Outbound {
		t.Fatalf("packet from inside = %v, want outbound", got)
	}
	if got := Classify(SocketPair{SrcAddr: outside, DstAddr: inside}, net); got != Inbound {
		t.Fatalf("packet from outside = %v, want inbound", got)
	}
}

func TestDirectionString(t *testing.T) {
	if Outbound.String() != "outbound" || Inbound.String() != "inbound" {
		t.Fatal("direction names wrong")
	}
	if Direction(9).String() != "direction(9)" {
		t.Fatal("unknown direction name wrong")
	}
}

func TestSocketPairString(t *testing.T) {
	s := SocketPair{Proto: UDP, SrcAddr: AddrFrom4(1, 2, 3, 4), SrcPort: 53, DstAddr: AddrFrom4(5, 6, 7, 8), DstPort: 9999}
	want := "UDP 1.2.3.4:53 -> 5.6.7.8:9999"
	if got := s.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
