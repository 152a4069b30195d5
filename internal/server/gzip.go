package server

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/bits"
)

// gzipStream is the server's gzip writer (RFC 1952 around RFC 1951): greedy
// LZ77 over the last 32 KiB written, coded with the fixed Huffman codes only.
// compress/gzip's writer allocates and zeroes 795 KiB per stream whatever the
// level, for a stream that carries a few KiB (DESIGN.md §8); this one holds
// at most 64 KiB of history plus a 16 KiB hash table, and pays for it in
// wire bytes: fixed codes are about a sixth larger here. The hash table
// starts at half the history the first block encodes and grows as the
// history passes eight times its entries. Its buffers are lent: the server
// keeps a stream's history, table and output buffer for the next stream,
// and reset starts that stream on them with the bytes a new one would write.
//
// The contract is gzip.Writer's, as far as the server uses it: Write buffers,
// Flush ends in the empty stored block 00 00 ff ff (the sync marker clients
// and bench/sever.go cut on), Close writes the final block and the trailer.
// After the first failed write to w every call returns that error.
type gzipStream struct {
	w   io.Writer
	err error

	hist  []byte  // at most the last 64 KiB written
	enc   int     // hist[enc:] is not yet encoded
	table []int32 // 4-byte hash → 1 + its last position in hist, 0 = none; empty until the first block
	shift uint    // 32 - log2(len(table)): a hash is its top bits
	crc   uint32
	size  uint32

	out   []byte // encoded bytes not yet written to w
	bits  uint64 // bits not yet whole bytes, LSB first
	nbits uint
}

const (
	window    = 1 << 15 // RFC 1951's largest match distance
	tableBits = 12      // the table's most entries, log2
	minMatch  = 4
	maxMatch  = 258
)

// fixedLit holds RFC 1951 §3.2.6's fixed literal/length codes, bit-reversed
// for the LSB-first stream, with each code's length above bit 16.
var fixedLit = func() (t [288]uint32) {
	for c := range t {
		code, n := c+0x30, 8
		switch {
		case c >= 280:
			code = c - 280 + 0xc0
		case c >= 256:
			code, n = c-256, 7
		case c >= 144:
			code, n = c-144+0x190, 9
		}
		t[c] = uint32(bits.Reverse16(uint16(code))>>(16-n)) | uint32(n)<<16
	}
	return t
}()

// gzipHeader is the header compress/gzip writes when no name, comment or
// time is set: deflate, no flags, mtime 0, OS unknown.
var gzipHeader = [...]byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff}

// reset starts a new stream onto w, keeping the capacity of every buffer
// an earlier stream left. What a stream writes depends only on what is
// written to it: a kept table is cut to the size a new stream's would
// have and cleared before its first block (sizeTable).
func (z *gzipStream) reset(w io.Writer) {
	*z = gzipStream{
		w:     w,
		hist:  z.hist[:0],
		table: z.table[:0],
		out:   append(z.out[:0], gzipHeader[:]...),
	}
}

// Write appends p to the history; nothing reaches w before Flush or Close
// unless the history would pass 64 KiB, which encodes the pending bytes and
// slides the window first.
func (z *gzipStream) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 && z.err == nil {
		k := min(len(p), window)
		if len(z.hist)+k > 2*window {
			z.block(false) // no sync marker: nothing asked for one
			z.send()
			z.slide()
		}
		z.hist = append(z.hist, p[:k]...)
		z.crc = crc32.Update(z.crc, crc32.IEEETable, p[:k])
		z.size += uint32(k)
		p = p[k:]
	}
	return n - len(p), z.err
}

// Flush encodes what is pending as one non-final block, if anything is,
// then the empty stored block, and writes it all to w.
func (z *gzipStream) Flush() error {
	if z.err != nil {
		return z.err
	}
	z.block(false)
	z.put(0, 3) // stored, not final
	z.align()
	z.out = append(z.out, 0, 0, 0xff, 0xff)
	z.send()
	return z.err
}

// Close writes the final block and the gzip trailer (CRC-32, ISIZE). The
// stream takes no call after it.
func (z *gzipStream) Close() error {
	if z.err != nil {
		return z.err
	}
	z.block(true)
	z.align()
	z.out = binary.LittleEndian.AppendUint32(z.out, z.crc)
	z.out = binary.LittleEndian.AppendUint32(z.out, z.size)
	z.send()
	return z.err
}

// block encodes hist[enc:] as one fixed-Huffman block (none if it is empty
// and not final). The one candidate at each position is the last earlier
// position with the same 4-byte hash, and a match is taken whole (greedy).
func (z *gzipStream) block(final bool) {
	if z.enc == len(z.hist) && !final {
		return
	}
	if z.enc < len(z.hist) {
		z.sizeTable()
	}
	hdr := uint32(1 << 1) // BTYPE 01: fixed Huffman codes
	if final {
		hdr |= 1
	}
	z.put(hdr, 3)
	h := z.hist
	for i := z.enc; i < len(h); {
		if i+minMatch <= len(h) {
			cur := binary.LittleEndian.Uint32(h[i:])
			k := (cur * 0x1e35a7bd) >> z.shift
			cand := int(z.table[k]) - 1
			z.table[k] = int32(i + 1)
			if cand >= 0 && i-cand <= window && binary.LittleEndian.Uint32(h[cand:]) == cur {
				n := minMatch
				for i+n < len(h) && n < maxMatch && h[cand+n] == h[i+n] {
					n++
				}
				z.match(n, i-cand)
				for j := i + 1; j < i+n && j+minMatch <= len(h); j++ {
					z.table[binary.LittleEndian.Uint32(h[j:])*0x1e35a7bd>>z.shift] = int32(j + 1)
				}
				i += n
				continue
			}
		}
		z.sym(int(h[i]))
		i++
	}
	z.sym(256) // end of block
	z.enc = len(h)
}

// sizeTable gives the table the largest power of two entries in half the
// bytes held, up to 2^tableBits, when it has none or a quarter of that. A
// new table holds the last encoded position of each hash, as the old one did.
// It is carved from the table's own capacity when that is enough.
func (z *gzipStream) sizeTable() {
	n := uint(min(max(bits.Len(uint(len(z.hist)))-2, 0), tableBits))
	if len(z.table) > 0 && n < 32-z.shift+2 {
		return
	}
	if cap(z.table) >= 1<<n {
		z.table = z.table[:1<<n]
		clear(z.table)
	} else {
		z.table = make([]int32, 1<<n)
	}
	z.shift = 32 - n
	h := z.hist
	for i := 0; i < z.enc && i+minMatch <= len(h); i++ {
		z.table[binary.LittleEndian.Uint32(h[i:])*0x1e35a7bd>>z.shift] = int32(i + 1)
	}
}

// match codes a length (3–258) and a distance (1–32768): RFC 1951 §3.2.5's
// code for each is its value's top bits, its extra bits the rest.
func (z *gzipStream) match(length, dist int) {
	switch l := uint32(length - 3); {
	case l < 8:
		z.sym(257 + int(l))
	case l == 255:
		z.sym(285)
	default:
		e := uint(bits.Len32(l)) - 3
		z.sym(261 + 4*int(e) + int(l>>e&3))
		z.put(l&(1<<e-1), e)
	}
	d := uint32(dist - 1)
	if d < 4 {
		z.put(uint32(bits.Reverse8(uint8(d))>>3), 5)
		return
	}
	e := uint(bits.Len32(d)) - 2
	z.put(uint32(bits.Reverse8(uint8(2*e+2+uint(d>>e&1)))>>3), 5)
	z.put(d&(1<<e-1), e)
}

func (z *gzipStream) sym(c int) {
	z.put(fixedLit[c]&0xffff, uint(fixedLit[c]>>16))
}

// put appends the low n bits of v, LSB first; n is at most 16.
func (z *gzipStream) put(v uint32, n uint) {
	z.bits |= uint64(v) << z.nbits
	z.nbits += n
	for z.nbits >= 8 {
		z.out = append(z.out, byte(z.bits))
		z.bits >>= 8
		z.nbits -= 8
	}
}

func (z *gzipStream) align() {
	if z.nbits > 0 {
		z.put(0, 8-z.nbits)
	}
}

// slide drops all but the last 32 KiB of a history longer than that, all of
// it encoded, and rebases the hash table on what is left.
func (z *gzipStream) slide() {
	drop := len(z.hist) - window
	z.hist = z.hist[:copy(z.hist, z.hist[drop:])]
	z.enc -= drop
	for i, v := range z.table {
		z.table[i] = max(v-int32(drop), 0)
	}
}

// send writes the whole bytes encoded so far to w, or drops them once a
// write has failed.
func (z *gzipStream) send() {
	if z.err == nil && len(z.out) > 0 {
		_, z.err = z.w.Write(z.out)
	}
	z.out = z.out[:0]
}
