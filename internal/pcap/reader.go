package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"p2pbound/internal/packet"
)

// Record framing errors. Once record framing is broken no later byte of
// the capture can be trusted, so both are terminal: ReadBatch returns
// them after the packets decoded before the break, and a torn capture
// looks aborted, not complete.
var (
	// ErrTruncatedFile reports a record header or frame cut off by the
	// end of the capture — the file a SIGKILLed tcpdump leaves.
	ErrTruncatedFile = errors.New("pcap: truncated record")
	// ErrBadRecordLength reports a record length outside the plausible
	// range (over the snap length plus the Ethernet header, or over
	// 1 MiB).
	ErrBadRecordLength = errors.New("pcap: implausible record length")
)

// streamWindow is a stream Reader's initial window. The window grows
// only to fit a record larger than it.
const streamWindow = 64 << 10

// Reader decodes the records of a pcap capture into caller batches.
// One record walker serves two feeds: a whole capture in memory (a
// mapped file, walked in place) and an io.Reader that refills a window
// (stdin, a FIFO, a socket). Decoded payloads alias the walked bytes,
// the capture or the window, so a batch's packets are valid only until
// the next ReadBatch.
//
// Frames that do not decode (not IPv4 TCP/UDP, malformed headers, a
// checksum failure under verification) are counted in Malformed and
// skipped. Broken record framing ends the read with ErrTruncatedFile or
// ErrBadRecordLength.
type Reader struct {
	src       io.Reader // nil when win holds the whole capture
	swapped   bool      // file byte order is opposite the LE record layout we load
	snaplen   int
	verify    bool
	clientNet packet.Network

	buf  []byte //p2p:confined pcapwalk // a stream's window storage
	win  []byte //p2p:confined pcapwalk // the bytes walked: the capture, or buf's filled prefix
	off  int    //p2p:confined pcapwalk
	more bool   //p2p:confined pcapwalk // src may extend win; false once it reports EOF
	need int    //p2p:confined pcapwalk // bytes at off the walker waits for

	baseSec  int64         //p2p:confined pcapwalk
	baseUsec int64         //p2p:confined pcapwalk
	baseSet  bool          //p2p:confined pcapwalk
	lastTS   time.Duration //p2p:confined pcapwalk

	malformed        int64 //p2p:confined pcapwalk
	clockRegressions int64 //p2p:confined pcapwalk
	done             bool  //p2p:confined pcapwalk
	err              error //p2p:confined pcapwalk // terminal error, nil on a clean end
	readErr          error //p2p:confined pcapwalk // src's error, reported once win's records are walked
}

// NewMemReader returns a Reader over a whole capture held in memory,
// global header included. It walks data in place: data is aliased,
// never copied, and must stay valid and unmodified while the Reader or
// a packet it produced is in use. clientNet classifies each packet's
// direction; verify turns on IP and transport checksum verification.
//
//p2p:confined pcapwalk entry
func NewMemReader(data []byte, clientNet packet.Network, verify bool) (*Reader, error) {
	if len(data) < 24 {
		return nil, fmt.Errorf("pcap: global header truncated: %d bytes", len(data))
	}
	r := &Reader{win: data, off: 24, verify: verify, clientNet: clientNet}
	switch m := binary.LittleEndian.Uint32(data); m {
	case magic:
	case magicSwapped:
		r.swapped = true
	default:
		return nil, fmt.Errorf("pcap: bad magic %#x", m)
	}
	r.snaplen = int(r.u32(16))
	if lt := r.u32(20); lt != linkEthernet {
		return nil, fmt.Errorf("pcap: unsupported link type %d", lt)
	}
	return r, nil
}

// NewReader reads the global header from src and returns a Reader that
// walks the records behind it through a window refilled from src. The
// other arguments are NewMemReader's.
//
//p2p:confined pcapwalk entry
func NewReader(src io.Reader, clientNet packet.Network, verify bool) (*Reader, error) {
	buf := make([]byte, streamWindow)
	n, err := io.ReadFull(src, buf[:24])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, fmt.Errorf("pcap: read global header: %w", err)
	}
	r, err := NewMemReader(buf[:n], clientNet, verify)
	if err != nil {
		return nil, err
	}
	r.src, r.buf, r.more = src, buf, true
	return r, nil
}

// Malformed reports how many well-framed records were skipped:
// undecodable frames and checksum failures under verification.
//
//p2p:confined pcapwalk entry
func (r *Reader) Malformed() int64 { return r.malformed }

// ClockRegressions reports how many records carried a capture timestamp
// behind an earlier record's; their TS values were clamped.
//
//p2p:confined pcapwalk entry
func (r *Reader) ClockRegressions() int64 { return r.clockRegressions }

// ReadBatch decodes the next records into dst in place and returns how
// many packets it produced, with io.EOF (possibly alongside a final
// n > 0) once the capture has cleanly ended, or the terminal framing or
// read error. A stream Reader returns as soon as its window holds no
// further complete record and a packet was decoded, so a live capture's
// packets are not held back to fill a batch; it blocks only while it
// has decoded nothing.
//
//p2p:confined pcapwalk entry
func (r *Reader) ReadBatch(dst []packet.Packet) (int, error) {
	n := 0
	for n == 0 && !r.done && len(dst) > 0 {
		if n = r.walk(dst); n == 0 && !r.done {
			r.fill()
		}
	}
	switch {
	case !r.done:
		return n, nil
	case r.err != nil:
		return n, r.err
	}
	return n, io.EOF
}

// fill slides the window's unwalked bytes to the front of the buffer
// and reads more behind them, growing the buffer only when the record
// the walker waits for does not fit. It runs only between batches (no
// packet decoded in this ReadBatch aliases the bytes it moves).
//
//p2p:confined pcapwalk
func (r *Reader) fill() {
	rest := r.win[r.off:]
	if r.need > len(r.buf) {
		r.buf = make([]byte, r.need)
	}
	k := copy(r.buf, rest)
	n, err := r.src.Read(r.buf[k:])
	r.win, r.off = r.buf[:k+n], 0
	if err != nil {
		// The window is final either way: the walker decodes every
		// complete record in it, the n bytes this Read returned
		// included, before the error ends the read.
		r.more = false
		if err != io.EOF {
			r.readErr = fmt.Errorf("pcap: read: %w", err)
		}
	}
}

// stop ends the walk at the end of the window, with err nil for a clean
// end of the capture or ErrTruncatedFile. A read error src reported
// takes precedence over both: the bytes it withheld might have completed
// the record.
//
//p2p:hotpath
//p2p:confined pcapwalk
func (r *Reader) stop(err error) {
	if r.readErr != nil {
		err = r.readErr
	}
	r.err, r.done = err, true
}

// u32 loads a little-endian uint32 at off in the window, byte-swapped
// for big-endian files.
//
//p2p:hotpath
//p2p:confined pcapwalk
func (r *Reader) u32(off int) uint32 {
	b := r.win[off : off+4 : off+4]
	v := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	if r.swapped {
		v = v<<24 | v>>24 | v<<8&0x00ff0000 | v>>8&0x0000ff00
	}
	return v
}

// walk is the record walker, the one place that knows pcap record
// framing: it advances through the window's records until dst is full,
// the capture ends, or (on a stream) the next record is not all in the
// window yet, decoding accepted frames into dst in place, and returns
// how many it decoded. It never reads past the window: every record
// header and frame is bounds-checked before it is touched.
//
//p2p:hotpath
//p2p:confined pcapwalk
func (r *Reader) walk(dst []packet.Packet) int {
	n := 0
	for n < len(dst) {
		rem := len(r.win) - r.off
		if rem < 16 {
			if r.more {
				r.need = 16
				break
			}
			// Trailing bytes too short for a record header: the
			// capture was truncated mid-record.
			var err error
			if rem > 0 {
				err = ErrTruncatedFile
			}
			r.stop(err)
			break
		}
		sec := r.u32(r.off)
		usec := r.u32(r.off + 4)
		// Widen unsigned: a length with the high bit set must fail the
		// plausibility gate, not flip negative.
		inclLen := int(r.u32(r.off + 8))
		origLen := int(r.u32(r.off + 12))
		if inclLen < 0 || inclLen > r.snaplen+ethHeaderLen || inclLen > 1<<20 {
			// A record length this wrong means the framing is lost; no
			// later offset can be trusted.
			r.err = ErrBadRecordLength
			r.done = true
			break
		}
		if rem-16 < inclLen {
			if r.more {
				r.need = 16 + inclLen
				break
			}
			// A record header whose frame bytes are entirely absent is
			// a clean end of the capture, a quirk kept from the
			// io.ReadFull-based reader this walker replaced (the walk
			// golden in internal/ingest pins it); a partial frame is a
			// tear.
			var err error
			if rem > 16 {
				err = ErrTruncatedFile
			}
			r.stop(err)
			break
		}
		frame := r.win[r.off+16 : r.off+16+inclLen : r.off+16+inclLen]
		r.off += 16 + inclLen

		// The timestamp base is the first record's capture time, set
		// once the record is well-framed, even if its frame fails to
		// decode.
		if !r.baseSet {
			r.baseSec = int64(sec)
			r.baseUsec = int64(usec)
			r.baseSet = true
		}

		pkt := &dst[n]
		if DecodeFrame(frame, origLen, r.verify, pkt) != nil {
			r.malformed++
			continue
		}

		// Capture clocks regress in the wild (NTP steps, per-queue NIC
		// stamping). Count the anomaly but emit a clamped,
		// non-decreasing timestamp so downstream state machines never
		// see time run backwards.
		rel := time.Duration(int64(sec)-r.baseSec)*time.Second +
			time.Duration(int64(usec)-r.baseUsec)*time.Microsecond
		if rel < r.lastTS {
			r.clockRegressions++
			rel = r.lastTS
		} else {
			r.lastTS = rel
		}
		pkt.TS = rel
		pkt.Dir = packet.Classify(pkt.Pair, r.clientNet)
		n++
	}
	return n
}

// WriteAll writes a full packet slice to w.
func WriteAll(w io.Writer, packets []packet.Packet, snaplen int, base time.Time) error {
	pw, err := NewWriter(w, snaplen, base)
	if err != nil {
		return err
	}
	for i := range packets {
		if err := pw.WritePacket(&packets[i]); err != nil {
			return err
		}
	}
	return nil
}

// ReadAll reads every packet from rd into a slice that owns its
// payloads. Frames that do not decode, a checksum failure included when
// verify is set, are skipped, as every reader of a capture skips them.
func ReadAll(rd io.Reader, clientNet packet.Network, verify bool) ([]packet.Packet, error) {
	r, err := NewReader(rd, clientNet, verify)
	if err != nil {
		return nil, err
	}
	var out []packet.Packet
	batch := make([]packet.Packet, 256)
	for {
		n, err := r.ReadBatch(batch)
		for _, pkt := range batch[:n] {
			if len(pkt.Payload) > 0 {
				pkt.Payload = append([]byte(nil), pkt.Payload...)
			}
			out = append(out, pkt)
		}
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}
