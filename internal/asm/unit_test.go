package asm

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/isa"
)

// everyItem uses every directive and every kind of item a unit holds.
const everyItem = `
.module rt.jef
.type shared
.pic
.strip exports
.needs libj.jef
.import malloc
.global f
.section .weird
w: .byte 9
.section .text
f:
    push fp
    la r1, tbl+8
    ldpc r2, tbl
    leapc r3, [pc+4]
    call malloc
    jne f+1
    ldxq r4, [r5+r6*8]
    stxb [r5+r6-3], r7
    ldq r8, [fp+0]
    trap 7
    pop fp
    ret
.section .rodata
tbl:
    .quad f
    .quad -5
    .long tbl+4
    .byte 1, 2, 255
    .ascii "a\"b"
.align 8
    .asciz "z\x00q"
    .zero 3
.section .data
d: .quad tbl-8
`

// TestTextRoundtrip: the text a unit prints assembles to the module the
// unit links to, and printing is stable.
func TestTextRoundtrip(t *testing.T) {
	u, err := parse(everyItem)
	if err != nil {
		t.Fatal(err)
	}
	want := mustAssemble(t, everyItem).Marshal()
	text := u.Text()
	if got := mustAssemble(t, text).Marshal(); !bytes.Equal(got, want) {
		t.Fatalf("printed unit assembles to a different module:\n%s", text)
	}
	again, err := parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if again.Text() != text {
		t.Fatalf("printing is not stable:\n%s\nvs\n%s", text, again.Text())
	}
}

// TestDeleteAndRelink: linking leaves a unit as it was, so a unit linked
// once, edited and linked again yields the module its edited source
// assembles to.
func TestDeleteAndRelink(t *testing.T) {
	u, err := parse(everyItem)
	if err != nil {
		t.Fatal(err)
	}
	first, err := u.Link()
	if err != nil {
		t.Fatal(err)
	}
	if again, err := u.Link(); err != nil || !bytes.Equal(again.Marshal(), first.Marshal()) {
		t.Fatalf("linking the same unit twice differs (err %v)", err)
	}
	// Items of .text: f, push fp, la, ... pop fp, ret.
	text := u.Section(".text")
	if text.items[1].op != isa.OpPush || text.items[text.Len()-2].op != isa.OpPop {
		t.Fatal("unexpected .text layout in the test source")
	}
	text.Delete([]int{1, text.Len() - 2})
	got, err := u.Link()
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(strings.Replace(everyItem, "    push fp\n", "", 1), "    pop fp\n", "", 1)
	if want := mustAssemble(t, edited).Marshal(); !bytes.Equal(got.Marshal(), want) {
		t.Fatal("relinked unit differs from its edited source")
	}
}

// TestLinkRejectsSectionPastAddressSpace checks that Link refuses, before
// allocating any section data, a unit whose layout passes the end of the
// address space or wraps around it.
func TestLinkRejectsSectionPastAddressSpace(t *testing.T) {
	for _, tc := range []struct {
		name string
		fill func(*Section)
	}{
		{"past the end", func(s *Section) { s.Zero(24 << 30) }},
		{"wraps", func(s *Section) { s.Zero(1 << 20); s.Zero(-1) }},
	} {
		u := NewUnit()
		u.Name = "m"
		u.Section(".text").Instr(isa.Instr{Op: isa.OpRet})
		tc.fill(u.Section(".data"))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := u.Link()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "section .data passes the end of the address space") {
			t.Errorf("%s: Link error %v", tc.name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: Link allocated %d bytes", tc.name, grew)
		}
	}
}
