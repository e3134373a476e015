package server

// The binary wire protocol: a length-prefixed frame format carrying the
// same operations as the HTTP/JSON API with buffer payloads as raw
// little-endian bytes — no base64, no per-field JSON. It shares the
// daemon's listener with HTTP: the first byte of a connection selects
// the protocol (binMagic cannot begin an HTTP method or a TLS record),
// so one -addr serves both old and new clients.
//
// Connection layout (all integers little-endian):
//
//	client hello:  [binMagic]['d']['p'][u8 version]
//	server hello:  [binMagic][u8 version]            (accept)
//	               [opError frame]                   (version rejected)
//
// then strictly sequential request/response frames:
//
//	frame:         [u8 op][u32 payloadLen][payload]
//
// A response frame echoes the request op with binOKBit set, or carries
// opError. Strings are [u32 len][bytes]. Buffer payloads are
// [4*elems raw bytes] in element order, bit-exact with the f32_b64 /
// i32_b64 JSON encodings.
//
// Frame catalogue (request payloads):
//
//	opCompile      str source
//	opNewSession   str id ("" = server assigns)
//	opCloseSession str id
//	opCreateBuffer str sid, str name, u8 kind('f'|'i'), u32 elems,
//	               u8 content(0 zero | 1 fill | 2 raw),
//	               fill: u32 seed, i32 mod;  raw: 4*elems bytes
//	opReadBuffer   str sid, str name
//	opLaunch       str sid, str progID, str kernel, str idemKey,
//	               u32 deadlineMS, u8 dims, u32 global[dims],
//	               u32 local[dims], u16 nargs,
//	               arg: u8 'b' + str | u8 'i' + i64 | u8 'f' + f64,
//	               u16 nread, str names[nread]
//
// and response payloads:
//
//	opCompile|OK      str programID, u32 n, str kernels[n], u8 cached
//	opNewSession|OK   str id
//	opCloseSession|OK (empty)
//	opCreateBuffer|OK u32 elems
//	opReadBuffer|OK   u8 kind, u32 elems, raw bytes
//	opLaunch|OK       str rung, str engine, u8 flags(1 decision,
//	                  2 result, 4 replayed, 8 coalesced: never set),
//	                  decision?: u32 cores, f64 gpuFrac, f64 predicted,
//	                  u32 evaluated, u8 discarded, f64 inferUS,
//	                  result?: f64 simSec, u32 wgsCPU, u32 wgsGPU,
//	                  u32 gpuChunks,
//	                  fallback: 6 x i64,
//	                  f64 queueMS, f64 execMS,
//	                  u16 nbufs, buf: str name, u8 kind, u32 elems, raw
//	opError           u16 httpStatus, str msg, str stage, u32 retryMS

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

const (
	// binMagic opens every binary connection. 0xD0 is not printable
	// ASCII (no HTTP method starts with it) and is not a TLS record
	// type, so first-byte sniffing is unambiguous.
	binMagic   = 0xD0
	binVersion = 1

	binOKBit = 0x80

	opCompile      = 0x01
	opNewSession   = 0x02
	opCloseSession = 0x03
	opCreateBuffer = 0x04
	opLaunch       = 0x05
	opReadBuffer   = 0x06
	opError        = 0x7F

	// launch response flags
	binFlagDecision  = 1
	binFlagResult    = 2
	binFlagReplayed  = 4
	binFlagCoalesced = 8 // reserved: no server sets it; the client still decodes it

	// binHelloLen is the client hello length: magic + "dp" + version.
	binHelloLen = 4
)

// writeClientHello / readClientHello frame the 4-byte connection
// preamble.
func writeClientHello(w io.Writer) error {
	_, err := w.Write([]byte{binMagic, 'd', 'p', binVersion})
	return err
}

// writeFrameHeader emits [op][payloadLen].
func writeFrameHeader(w *bufio.Writer, op byte, payloadLen int) error {
	var hdr [5]byte
	hdr[0] = op
	binary.LittleEndian.PutUint32(hdr[1:], uint32(payloadLen))
	_, err := w.Write(hdr[:])
	return err
}

// readFrameHeader reads one [op][payloadLen] header, bounding the
// payload at maxLen.
func readFrameHeader(r *bufio.Reader, maxLen int64) (op byte, n int, err error) {
	var hdr [5]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, err
	}
	ln := binary.LittleEndian.Uint32(hdr[1:])
	if int64(ln) > maxLen {
		return 0, 0, fmt.Errorf("binproto: %d-byte frame exceeds the %d-byte limit", ln, maxLen)
	}
	return hdr[0], int(ln), nil
}

// wireCursor is a bounds-checked little-endian reader over one frame
// payload. The first out-of-bounds read latches err and zero-values
// every subsequent read, so decoders can parse straight-line and check
// once.
type wireCursor struct {
	b   []byte
	off int
	err error
}

func (c *wireCursor) fail() {
	if c.err == nil {
		c.err = fmt.Errorf("binproto: truncated frame (%d bytes, offset %d)", len(c.b), c.off)
	}
}

func (c *wireCursor) take(n int) []byte {
	if c.err != nil || n < 0 || c.off+n > len(c.b) {
		c.fail()
		return nil
	}
	v := c.b[c.off : c.off+n]
	c.off += n
	return v
}

func (c *wireCursor) u8() byte {
	v := c.take(1)
	if v == nil {
		return 0
	}
	return v[0]
}

func (c *wireCursor) u16() uint16 {
	v := c.take(2)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(v)
}

func (c *wireCursor) u32() uint32 {
	v := c.take(4)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(v)
}

func (c *wireCursor) u64() uint64 {
	v := c.take(8)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}

func (c *wireCursor) i64() int64   { return int64(c.u64()) }
func (c *wireCursor) f64() float64 { return math.Float64frombits(c.u64()) }
func (c *wireCursor) rest() int    { return len(c.b) - c.off }
func (c *wireCursor) done() bool   { return c.err == nil && c.off == len(c.b) }
func (c *wireCursor) strBytes() []byte {
	n := c.u32()
	if c.err != nil || int64(n) > int64(c.rest()) {
		c.fail()
		return nil
	}
	return c.take(int(n))
}

// str decodes a string, allocating. Hot paths use strBytes plus an
// intern table instead.
func (c *wireCursor) str() string { return string(c.strBytes()) }

// ---------- append-style writers ----------

func appendU16(b []byte, v uint16) []byte {
	return append(b, byte(v), byte(v>>8))
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	var u [8]byte
	binary.LittleEndian.PutUint64(u[:], v)
	return append(b, u[:]...)
}

func appendI64(b []byte, v int64) []byte   { return appendU64(b, uint64(v)) }
func appendF64(b []byte, v float64) []byte { return appendU64(b, math.Float64bits(v)) }

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}
