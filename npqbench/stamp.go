package main

// The payload stamp. Every generated packet carries its identity and
// ingest time in its first 16 bytes, and the rest of its payload is a
// slice of a fixed pseudo-random pattern chosen by (flow, seq). The
// receiver decodes the stamp and compares every byte, so latency, per-flow
// order and payload integrity are all measured from the delivered bytes,
// with no instrumentation inside the engine.
//
// Stamp layout (little endian):
//
//	[0:4)   flow
//	[4:8)   per-flow sequence number
//	[8:14)  ingest time in ns since the run's epoch (48 bits, ~78 hours)
//	[14:16) packet length in bytes

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

const (
	stampBytes   = 16
	maxPacket    = 1500
	patternSpan  = 2048 // distinct pattern offsets
	patternBytes = patternSpan + maxPacket
)

// pattern is the payload source: fixed, so a packet's bytes depend only on
// its (flow, seq) and length.
var pattern = func() []byte {
	b := make([]byte, patternBytes)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x)
	}
	return b
}()

// patternOffset picks where in pattern packet (flow, seq) starts.
func patternOffset(flow, seq uint32) int {
	h := (uint64(flow)<<32 | uint64(seq)) * 0x9E3779B97F4A7C15
	return int(h >> 53) // [0, 2048)
}

// stamp is one generated packet's identity.
type stamp struct {
	flow, seq uint32
	t         int64 // ingest time, ns since epoch
	n         int   // length in bytes (stampBytes..maxPacket)
}

func (st *stamp) header() [stampBytes]byte {
	var h [stampBytes]byte
	binary.LittleEndian.PutUint32(h[0:], st.flow)
	binary.LittleEndian.PutUint32(h[4:], st.seq)
	binary.LittleEndian.PutUint64(h[8:], uint64(st.t)&(1<<48-1))
	binary.LittleEndian.PutUint16(h[14:], uint16(st.n))
	return h
}

func decodeStamp(h *[stampBytes]byte) stamp {
	return stamp{
		flow: binary.LittleEndian.Uint32(h[0:]),
		seq:  binary.LittleEndian.Uint32(h[4:]),
		t:    int64(binary.LittleEndian.Uint64(h[8:]) & (1<<48 - 1)),
		n:    int(binary.LittleEndian.Uint16(h[14:])),
	}
}

// fill writes the packet's bytes starting at packet offset off into dst,
// up to the end of dst or of the packet, and returns the count written.
func (st *stamp) fill(dst []byte, off int) int {
	if rest := st.n - off; len(dst) > rest {
		dst = dst[:rest]
	}
	w := 0
	if off < stampBytes {
		h := st.header()
		w = copy(dst, h[off:])
	}
	if w < len(dst) {
		p := patternOffset(st.flow, st.seq) + off + w
		w += copy(dst[w:], pattern[p:p+len(dst)-w])
	}
	return w
}

// filler fills a reservation's segments in order; its fill method is
// handed to Reservation.Range once, so ingest allocates no closure.
type filler struct {
	st  stamp
	off int
}

func (f *filler) fill(seg []byte) bool {
	f.off += f.st.fill(seg, f.off)
	return f.off < f.st.n
}

// packetCheck verifies one delivered packet chunk by chunk: the stamp,
// then every pattern byte. Its feed method is a Range callback.
type packetCheck struct {
	hdr  [stampBytes]byte
	st   stamp
	off  int
	bad  bool
	what string
}

func (c *packetCheck) reset() {
	c.off, c.bad, c.what = 0, false, ""
}

func (c *packetCheck) feed(chunk []byte) bool {
	for len(chunk) > 0 && !c.bad {
		if c.off < stampBytes {
			k := copy(c.hdr[c.off:], chunk)
			c.off += k
			chunk = chunk[k:]
			if c.off == stampBytes {
				c.st = decodeStamp(&c.hdr)
				if c.st.n < stampBytes || c.st.n > maxPacket {
					c.bad, c.what = true, fmt.Sprintf("stamp length %d out of range", c.st.n)
				}
			}
			continue
		}
		end := c.off + len(chunk)
		if end > c.st.n {
			c.bad, c.what = true, fmt.Sprintf("payload runs past the stamped length %d", c.st.n)
			break
		}
		p := patternOffset(c.st.flow, c.st.seq)
		if !bytes.Equal(chunk, pattern[p+c.off:p+end]) {
			c.bad, c.what = true, fmt.Sprintf("payload differs from the pattern in bytes [%d, %d)", c.off, end)
			break
		}
		c.off = end
		chunk = nil
	}
	return !c.bad
}

// finish checks the fed packet against what the engine said it delivered.
func (c *packetCheck) finish(flow uint32, n int) error {
	switch {
	case c.bad:
		return fmt.Errorf("flow %d: %s", flow, c.what)
	case c.off < stampBytes:
		return fmt.Errorf("flow %d: packet of %d bytes is shorter than its stamp", flow, c.off)
	case c.st.flow != flow:
		return fmt.Errorf("flow %d: delivered a packet stamped for flow %d", flow, c.st.flow)
	case c.off != c.st.n || n != c.st.n:
		return fmt.Errorf("flow %d seq %d: stamped %d bytes, read %d, engine reported %d",
			flow, c.st.seq, c.st.n, c.off, n)
	}
	return nil
}
