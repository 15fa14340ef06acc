// Package codec implements the repository's binary persistence framing,
// shared by every on-disk format: an ASCII magic outside the checksum, a
// varint/float64/string body, and a trailing CRC32 (IEEE) over the body.
// The tree package's forest format (TCRF) defined the layout; the pipeline
// artifact (core), topic models, and the warehouse's .tct partitions and
// TEV1 event-log segments (store) all write through Writer and decode
// through Reader, so there is one place where stored bytes become lengths
// and allocations.
package codec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
)

// ErrCorrupt is the sentinel wrapped by every structural, checksum or
// framing failure on the read side.
var ErrCorrupt = errors.New("codec: corrupt data")

// blockSize is the most the Writer holds before it checksums the pending
// body bytes and hands magic and body to the underlying writer in one
// Write. A frame no larger than one block (magic, body and trailer) reaches
// the underlying writer in exactly one Write, at Close.
const blockSize = 1 << 16

// crcLen is the size of the trailing CRC32.
const crcLen = 4

// blocks recycles Writer block buffers, which every frame needs and which
// are dead the moment Close has written them.
var blocks = sync.Pool{New: func() any {
	b := make([]byte, 0, blockSize+crcLen)
	return &b
}}

// errClosed is the sticky error of a Writer used after Close.
var errClosed = errors.New("codec: write after Close")

// Writer frames a binary stream: NewWriter emits the magic (excluded from
// the checksum), the value methods append the body while feeding the CRC,
// and Close writes the CRC32 trailer and flushes. The Writer builds each
// block in its own buffer and checksums it in one pass, not value by
// value. Errors are sticky; check the one returned by Close.
type Writer struct {
	w     io.Writer
	block *[]byte // pooled backing store of buf
	buf   []byte  // the pending block: the magic (first block only), then body bytes
	body  int     // buf[body:] is the body part of buf, not yet in crc
	crc   uint32
	n     int64
	err   error
}

// NewWriter starts a framed stream on w by writing magic verbatim.
func NewWriter(w io.Writer, magic string) *Writer {
	block := blocks.Get().(*[]byte)
	cw := &Writer{w: w, block: block, buf: (*block)[:0]}
	write(cw, magic)
	cw.body = len(magic)
	return cw
}

// flush checksums the pending body bytes and hands the block to the
// underlying writer. After the first error nothing more is written.
func (cw *Writer) flush() {
	if cw.err == nil {
		cw.crc = crc32.Update(cw.crc, crc32.IEEETable, cw.buf[cw.body:])
		n, err := cw.w.Write(cw.buf)
		cw.n += int64(n)
		if err == nil && n < len(cw.buf) {
			err = io.ErrShortWrite
		}
		cw.err = err
	}
	cw.buf, cw.body = cw.buf[:0], 0
}

// write copies p into the pending block, flushing each block as it fills.
// After an error (or Close) it drops p.
func write[T string | []byte](cw *Writer, p T) {
	for len(p) > 0 && cw.err == nil {
		if len(cw.buf) >= blockSize {
			cw.flush()
		}
		k := copy(cw.buf[len(cw.buf):blockSize], p)
		cw.buf, p = cw.buf[:len(cw.buf)+k], p[k:]
	}
}

// room reports whether n more bytes fit in the pending block.
func (cw *Writer) room(n int) bool { return len(cw.buf)+n <= blockSize }

// Write appends raw bytes to the body (and the checksum).
func (cw *Writer) Write(p []byte) (int, error) {
	if cw.err != nil {
		return 0, cw.err
	}
	write(cw, p)
	return len(p), nil
}

// Uvarint appends an unsigned varint.
func (cw *Writer) Uvarint(v uint64) {
	if cw.room(binary.MaxVarintLen64) {
		cw.buf = binary.AppendUvarint(cw.buf, v)
		return
	}
	var b [binary.MaxVarintLen64]byte
	write(cw, b[:binary.PutUvarint(b[:], v)])
}

// Int appends a signed value (zig-zag varint).
func (cw *Writer) Int(v int64) {
	if cw.room(binary.MaxVarintLen64) {
		cw.buf = binary.AppendVarint(cw.buf, v)
		return
	}
	var b [binary.MaxVarintLen64]byte
	write(cw, b[:binary.PutVarint(b[:], v)])
}

// Float appends a float64 as its exact IEEE-754 bits (little endian), so
// round trips are bit-identical.
func (cw *Writer) Float(v float64) {
	if cw.room(8) {
		cw.buf = binary.LittleEndian.AppendUint64(cw.buf, math.Float64bits(v))
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	write(cw, b[:])
}

// Floats appends a length-prefixed float64 slice.
func (cw *Writer) Floats(v []float64) {
	cw.Uvarint(uint64(len(v)))
	for _, x := range v {
		cw.Float(x)
	}
}

// Str appends a length-prefixed string.
func (cw *Writer) Str(s string) {
	cw.Uvarint(uint64(len(s)))
	write(cw, s)
}

// Strs appends a length-prefixed string slice.
func (cw *Writer) Strs(s []string) {
	cw.Uvarint(uint64(len(s)))
	for _, x := range s {
		cw.Str(x)
	}
}

// Bytes appends a length-prefixed byte block (used to nest independently
// framed sub-formats, e.g. a whole forest file inside an artifact).
func (cw *Writer) Bytes(b []byte) {
	cw.Uvarint(uint64(len(b)))
	write(cw, b)
}

// Close writes the last block with the CRC32 trailer and returns the total
// bytes written (magic + body + trailer) and the first error encountered.
// The Writer is not usable afterwards.
func (cw *Writer) Close() (int64, error) {
	if cw.err == nil {
		cw.crc = crc32.Update(cw.crc, crc32.IEEETable, cw.buf[cw.body:])
		cw.buf = binary.LittleEndian.AppendUint32(cw.buf, cw.crc)
		cw.body = len(cw.buf) // the trailer is outside its own checksum
		cw.flush()
	}
	n, err := cw.n, cw.err
	if cw.block != nil {
		*cw.block = cw.buf[:0]
		blocks.Put(cw.block)
		cw.block = nil
	}
	cw.buf, cw.body = nil, 0
	if cw.err == nil {
		cw.err = errClosed
	}
	return n, err
}

// Reader decodes a framed stream produced by Writer. NewReader validates
// magic and checksum up front; the value methods then never fail mid-way —
// they record the first error, return zero values after it, and Close
// reports it along with any trailing garbage.
type Reader struct {
	b   []byte
	pos int
	err error
}

// NewReader reads all of r, validates the magic prefix and the CRC32
// trailer, and positions the reader at the start of the body.
func NewReader(r io.Reader, magic string) (*Reader, error) {
	data, err := io.ReadAll(bufio.NewReaderSize(r, 1<<16))
	if err != nil {
		return nil, err
	}
	return NewReaderBytes(data, magic)
}

// NewReaderBytes is NewReader over an in-memory buffer.
func NewReaderBytes(data []byte, magic string) (*Reader, error) {
	rd, err := NewHeadReader(data, magic)
	if err != nil {
		return nil, err
	}
	if len(rd.b) < 4 {
		return nil, fmt.Errorf("%w: no room for a checksum", ErrCorrupt)
	}
	body := rd.b[:len(rd.b)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(rd.b[len(body):]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	rd.b = body
	return rd, nil
}

// NewHeadReader decodes the leading bytes of a framed stream without the
// rest of it: the magic is checked, the checksum (which needs every byte)
// is not, and Close is meaningless. It is for bounded peeks at a header —
// the warehouse's schema probe — where a full verified read follows before
// the data is trusted.
func NewHeadReader(head []byte, magic string) (*Reader, error) {
	if len(head) < len(magic) || string(head[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic (want %q)", ErrCorrupt, magic)
	}
	return &Reader{b: head[len(magic):]}, nil
}

// Fail records a decoding error (e.g. an out-of-range value found by the
// caller) if none is recorded yet.
func (rd *Reader) Fail(msg string) {
	if rd.err == nil {
		rd.err = fmt.Errorf("%w: %s", ErrCorrupt, msg)
	}
}

// Err returns the first recorded error, or nil.
func (rd *Reader) Err() error { return rd.err }

// Uvarint reads an unsigned varint. Only the shortest encoding of a value
// is accepted, the one Writer writes.
func (rd *Reader) Uvarint() uint64 {
	if rd.err != nil {
		return 0
	}
	v, n := binary.Uvarint(rd.b[rd.pos:])
	if n <= 0 || !minimal(rd.b[rd.pos:], n) {
		rd.Fail("bad uvarint")
		return 0
	}
	rd.pos += n
	return v
}

// minimal reports whether the n-byte varint at the start of b is the
// shortest encoding of its value: a longer one ends in a zero byte.
func minimal(b []byte, n int) bool { return n == 1 || b[n-1] != 0 }

// Count reads the stored number of items that each occupy at least perItem
// bytes and fails on one the remaining input cannot hold. Every stored
// count that sizes an allocation goes through it: a checksum only proves
// the writer wrote the number, not that it is sane, so what a decoder
// allocates stays proportional to the bytes it was given.
func (rd *Reader) Count(perItem int) int {
	v := rd.Uvarint()
	if rd.err == nil && v > uint64((len(rd.b)-rd.pos)/perItem) {
		rd.Fail(fmt.Sprintf("count %d of %d-byte items exceeds %d remaining bytes", v, perItem, len(rd.b)-rd.pos))
		return 0
	}
	return int(v)
}

// Len reads a byte length: a count of one-byte items.
func (rd *Reader) Len() int { return rd.Count(1) }

// Int reads a signed (zig-zag) varint, in its shortest encoding only.
func (rd *Reader) Int() int64 {
	if rd.err != nil {
		return 0
	}
	v, n := binary.Varint(rd.b[rd.pos:])
	if n <= 0 || !minimal(rd.b[rd.pos:], n) {
		rd.Fail("bad varint")
		return 0
	}
	rd.pos += n
	return v
}

// IntsInto reads len(dst) signed varints into dst: the values, the error
// and the final position are those of len(dst) calls to Int, in one loop
// with a fast path for one-byte values. After a failure the rest of dst is
// zero.
func (rd *Reader) IntsInto(dst []int64) {
	if rd.err != nil {
		clear(dst)
		return
	}
	b, pos := rd.b, rd.pos
	for i := range dst {
		if pos < len(b) && b[pos] < 0x80 {
			c := b[pos]
			dst[i] = int64(c>>1) ^ -int64(c&1)
			pos++
			continue
		}
		// binary.Uvarint inlines where Varint does not; the zig-zag step is
		// Varint's.
		ux, n := binary.Uvarint(b[pos:])
		if n <= 0 || !minimal(b[pos:], n) {
			rd.pos = pos
			rd.Fail("bad varint")
			clear(dst[i:])
			return
		}
		dst[i] = int64(ux>>1) ^ -int64(ux&1)
		pos += n
	}
	rd.pos = pos
}

// FloatsInto reads len(dst) float64s into dst: the values, the error and
// the final position are those of len(dst) calls to Float. After a failure
// the rest of dst is zero.
func (rd *Reader) FloatsInto(dst []float64) {
	if rd.err != nil {
		clear(dst)
		return
	}
	n := min(len(dst), (len(rd.b)-rd.pos)/8)
	src := rd.b[rd.pos : rd.pos+8*n]
	for i := range dst[:n] {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	rd.pos += 8 * n
	if n < len(dst) {
		rd.Fail("truncated float")
		clear(dst[n:])
	}
}

// Float reads a float64.
func (rd *Reader) Float() float64 {
	if rd.err != nil {
		return 0
	}
	if rd.pos+8 > len(rd.b) {
		rd.Fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(rd.b[rd.pos:]))
	rd.pos += 8
	return v
}

// Floats reads a length-prefixed float64 slice.
func (rd *Reader) Floats() []float64 {
	n := rd.Count(8)
	if rd.err != nil {
		return nil
	}
	out := make([]float64, n)
	rd.FloatsInto(out)
	return out
}

// Str reads a length-prefixed string.
func (rd *Reader) Str() string {
	n := rd.Len()
	if rd.err != nil {
		return ""
	}
	s := string(rd.b[rd.pos : rd.pos+n])
	rd.pos += n
	return s
}

// Strs reads a length-prefixed string slice.
func (rd *Reader) Strs() []string {
	n := rd.Len()
	if rd.err != nil {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = rd.Str()
	}
	return out
}

// Bytes reads a length-prefixed byte block (shared with the underlying
// buffer).
func (rd *Reader) Bytes() []byte {
	n := rd.Len()
	if rd.err != nil {
		return nil
	}
	b := rd.b[rd.pos : rd.pos+n]
	rd.pos += n
	return b
}

// Close verifies the body was fully consumed and returns the first error.
func (rd *Reader) Close() error {
	if rd.err != nil {
		return rd.err
	}
	if rd.pos != len(rd.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rd.b)-rd.pos)
	}
	return nil
}
