// Package wire is the one binary codec behind JEF modules (internal/obj),
// .jrw rule files (internal/rules) and JPL1 rewrite plans
// (internal/rewrite). Every format is a 4-byte magic followed by fields:
// little-endian integers, u32 length-prefixed strings and byte strings, and
// u32 count-prefixed tables. Encoding appends to one slice; decoding is
// bounds-checked, records the first failure wrapped in the format's own
// sentinel error, and rejects trailing bytes.
package wire

import (
	"encoding/binary"
	"fmt"
)

// Writer is an encoding in progress: the bytes written so far. It converts
// to []byte without a copy.
type Writer []byte

// NewWriter starts an encoding with magic; size is a capacity hint.
func NewWriter(magic [4]byte, size int) Writer {
	return append(make(Writer, 0, size), magic[:]...)
}

// U8 writes v; U16, U32 and U64 write little-endian integers.
func (w *Writer) U8(v uint8)   { *w = append(*w, v) }
func (w *Writer) U16(v uint16) { *w = binary.LittleEndian.AppendUint16(*w, v) }
func (w *Writer) U32(v uint32) { *w = binary.LittleEndian.AppendUint32(*w, v) }
func (w *Writer) U64(v uint64) { *w = binary.LittleEndian.AppendUint64(*w, v) }

// Bool writes one byte, 1 or 0.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Str writes s with a u32 length prefix.
func (w *Writer) Str(s string) {
	w.U32(uint32(len(s)))
	*w = append(*w, s...)
}

// Blob writes b with a u32 length prefix.
func (w *Writer) Blob(b []byte) {
	w.U32(uint32(len(b)))
	*w = append(*w, b...)
}

// Reader decodes fields in order. After the first failure every read
// returns a zero value and Done reports that failure.
type Reader struct {
	b         []byte
	off       int
	err       error
	malformed error
}

// NewReader returns a Reader positioned after magic, or false when data
// does not begin with magic. Every later failure wraps malformed.
func NewReader(data []byte, magic [4]byte, malformed error) (*Reader, bool) {
	if len(data) < len(magic) || [4]byte(data[:4]) != magic {
		return nil, false
	}
	return &Reader{b: data, off: len(magic), malformed: malformed}, true
}

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", r.malformed, fmt.Sprintf(format, args...))
	}
}

// next consumes n bytes, or records a truncation and returns nil.
func (r *Reader) next(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.fail("truncated (%s at offset %d)", what, r.off)
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

// U8 reads one byte; U16, U32 and U64 read little-endian integers.
func (r *Reader) U8() uint8 {
	if p := r.next(1, "u8"); p != nil {
		return p[0]
	}
	return 0
}

func (r *Reader) U16() uint16 {
	if p := r.next(2, "u16"); p != nil {
		return binary.LittleEndian.Uint16(p)
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if p := r.next(4, "u32"); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if p := r.next(8, "u64"); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// Bool reads one byte; any nonzero value is true.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Str reads a u32 length-prefixed string.
func (r *Reader) Str() string { return string(r.next(int(r.U32()), "string")) }

// Blob reads a u32 length-prefixed byte string into a fresh slice, non-nil
// even when empty.
func (r *Reader) Blob() []byte {
	p := r.next(int(r.U32()), "bytes")
	if p == nil {
		return nil
	}
	return append([]byte{}, p...)
}

// count reads a u32 table length. A length above max, or one whose entries
// cannot fit in the bytes left when each encodes to at least size bytes,
// is recorded as a failure and read as 0, so no caller allocates for a
// count the data cannot hold.
func (r *Reader) count(what string, limit, size int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if n > limit || n*size > len(r.b)-r.off {
		r.fail("unreasonable %s count %d at offset %d", what, n, r.off)
		return 0
	}
	return n
}

// Table reads a count (see count) and then that many entries with read. An
// empty table reads as nil.
func Table[T any](r *Reader, what string, limit, size int, read func(*T)) []T {
	n := r.count(what, limit, size)
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		read(&out[i])
	}
	return out
}

// Done returns the first failure, or a failure for bytes left past the
// last field.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.b) {
		r.fail("%d trailing bytes at offset %d", len(r.b)-r.off, r.off)
	}
	return r.err
}
