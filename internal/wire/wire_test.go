package wire

import (
	"errors"
	"strings"
	"testing"
)

var (
	testMagic    = [4]byte{'T', 'S', 'T', '1'}
	errMalformed = errors.New("test: malformed")
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter(testMagic, 0)
	w.U8(0xab)
	w.U16(0xbeef)
	w.U32(0xdeadbeef)
	w.U64(1<<63 | 7)
	w.Bool(true)
	w.Str("name")
	w.Blob(nil)
	w.U32(2)
	w.U64(10)
	w.U64(20)

	r, ok := NewReader(w, testMagic, errMalformed)
	if !ok {
		t.Fatal("magic rejected")
	}
	if r.U8() != 0xab || r.U16() != 0xbeef || r.U32() != 0xdeadbeef ||
		r.U64() != 1<<63|7 || !r.Bool() || r.Str() != "name" {
		t.Fatal("scalar fields did not round-trip")
	}
	if b := r.Blob(); b == nil || len(b) != 0 {
		t.Fatalf("empty blob = %#v, want non-nil and empty", b)
	}
	got := Table(r, "word", 2, 8, func(v *uint64) { *v = r.U64() })
	if len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("table = %v", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestRejections(t *testing.T) {
	if _, ok := NewReader([]byte("TST"), testMagic, errMalformed); ok {
		t.Error("short input accepted as magic")
	}
	if _, ok := NewReader([]byte("XST1"), testMagic, errMalformed); ok {
		t.Error("wrong magic accepted")
	}
	for _, tc := range []struct {
		name, want string
		data       []byte
		read       func(r *Reader)
	}{
		{"truncated", "truncated (u32 at offset 4)", []byte{1, 2},
			func(r *Reader) { r.U32() }},
		{"string past end", "truncated (string at offset 8)", []byte{9, 0, 0, 0, 'a'},
			func(r *Reader) { r.Str() }},
		{"count over limit", "unreasonable entry count 3", []byte{3, 0, 0, 0, 0, 0, 0},
			func(r *Reader) { r.count("entry", 2, 1) }},
		{"count past bytes left", "unreasonable entry count 2", []byte{2, 0, 0, 0, 0, 0, 0},
			func(r *Reader) { r.count("entry", 2, 2) }},
		{"trailing", "1 trailing bytes at offset 5", []byte{1, 0},
			func(r *Reader) { r.U8() }},
	} {
		r, _ := NewReader(append(testMagic[:], tc.data...), testMagic, errMalformed)
		tc.read(r)
		err := r.Done()
		if !errors.Is(err, errMalformed) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want %q wrapping the sentinel", tc.name, err, tc.want)
		}
	}
}
