package asm

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"prisim/internal/isa"
)

func TestBuilderBasicProgram(t *testing.T) {
	b := NewBuilder()
	b.Label("main")
	b.RI(isa.OpADDI, isa.IntReg(1), isa.RZero, 5)
	b.Label("loop")
	b.RI(isa.OpADDI, isa.IntReg(1), isa.IntReg(1), -1)
	b.Bnez(isa.IntReg(1), "loop")
	b.Halt()
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != p.CodeBase {
		t.Errorf("entry = %#x, want code base %#x", p.Entry, p.CodeBase)
	}
	if len(p.Code) != 4 {
		t.Fatalf("len(code) = %d", len(p.Code))
	}
	// The backward branch should have displacement -2.
	br := isa.Decode(p.Code[2])
	if br.Op != isa.OpBNE || br.Imm != -2 {
		t.Errorf("branch = %v", br)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder()
	b.Jmp("nowhere")
	if _, err := b.Finish(); err == nil {
		t.Fatal("undefined label not reported")
	}
}

func TestBuilderDuplicateLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate label did not panic")
		}
	}()
	b := NewBuilder()
	b.Label("x")
	b.Label("x")
}

func TestBuilderDataLayout(t *testing.T) {
	b := NewBuilder()
	a1 := b.Words("tbl", []uint64{1, 2, 3})
	a2 := b.Bytes("bytes", []byte{9})
	a3 := b.Space("buf", 100)
	a4 := b.Floats("vec", []float64{1.5})
	if a1 != DefaultDataBase {
		t.Errorf("first data at %#x", a1)
	}
	if a2 != a1+24 {
		t.Errorf("bytes at %#x, want %#x", a2, a1+24)
	}
	if a3%8 != 0 || a3 <= a2 {
		t.Errorf("space at %#x", a3)
	}
	if a4 <= a3 || a4 < a3+100 {
		t.Errorf("floats at %#x overlaps space", a4)
	}
	b.Halt()
	p := b.MustFinish()
	if p.Symbols["tbl"] != a1 || p.Symbols["buf"] != a3 {
		t.Error("symbols not recorded")
	}
}

func TestBuilderLaBeforeDeclPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("La of undeclared symbol did not panic")
		}
	}()
	b := NewBuilder()
	b.La(isa.IntReg(1), "missing")
}

func TestProgramDisassemble(t *testing.T) {
	b := NewBuilder()
	b.Label("main")
	b.RI(isa.OpADDI, isa.IntReg(1), isa.RZero, 7)
	b.Halt()
	p := b.MustFinish()
	dis := p.Disassemble()
	if !strings.Contains(dis, "main:") || !strings.Contains(dis, "addi r1, zero, 7") {
		t.Errorf("disassembly:\n%s", dis)
	}
}

func TestAssembleTextProgram(t *testing.T) {
	src := `
; a complete program
.data
tbl:  .word 10, 20, 0x30
vec:  .float 2.5
msg:  .ascii "hi"
buf:  .space 64
.text
main:
  la   r1, tbl
  ldq  r2, 8(r1)      # r2 = 20
  li   r3, 1000000    ; needs lui
  mov  r4, r2
  beqz r4, done
  addi r4, r4, -20
done:
  halt
`
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Symbols["tbl"] == 0 || p.Symbols["buf"] == 0 {
		t.Error("data symbols missing")
	}
	if len(p.Code) == 0 {
		t.Fatal("no code")
	}
	if p.Entry != p.Symbols["main"] {
		t.Errorf("entry %#x != main %#x", p.Entry, p.Symbols["main"])
	}
}

func TestAssembleAllFormats(t *testing.T) {
	src := `
.data
d: .word 1
.text
main:
  add r1, r2, r3
  addi r1, r2, -5
  lui r1, 12
  ldq r1, 16(r2)
  fld f1, 0(r2)
  fst f1, 8(r2)
  beq r1, r2, main
  j main
  jal sub
  putc r1
  fadd f1, f2, f3
  fsqrt f4, f1
  cvtif f5, r1
  cvtfi r6, f5
  fclt r7, f1, f2
  nop
sub:
  jalr r9
  jalr r8, r9
  jr r9
  ret
  halt
`
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	// Every encoded word must decode to a valid op.
	for i, w := range p.Code {
		if isa.Decode(w).Op == isa.OpInvalid {
			t.Errorf("instruction %d decodes invalid", i)
		}
	}
}

func TestAssembleErrors(t *testing.T) {
	bad := []string{
		"frobnicate r1, r2",
		"add r1, r2",                  // missing operand
		"addi r1, r2, notanum",        // bad immediate
		"ldq r1, r2",                  // bad memory operand
		"beq r1, r2, nowhere\n",       // undefined label
		".text\nla r1, nothing",       // undefined symbol
		".data\nx: .word zebra",       // bad data
		".data\nx: .bogus 1",          // bad directive
		".data\nx: .space nope",       // bad size
		"jalr r1, r2, r3",             // too many operands
		".data\norphan:\n.text\nhalt", // label with no directive
	}
	for _, src := range bad {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q) succeeded, want error", src)
		}
	}
}

func TestBranchRangeError(t *testing.T) {
	b := NewBuilder()
	b.Label("main")
	b.Br(isa.OpBEQ, isa.RZero, isa.RZero, "far")
	for i := 0; i < 1<<15+10; i++ {
		b.Emit(isa.Inst{Op: isa.OpNOP})
	}
	b.Label("far")
	b.Halt()
	if _, err := b.Finish(); err == nil {
		t.Fatal("branch out of range not reported")
	}
}

func TestInterleavedSections(t *testing.T) {
	src := `
.data
a: .word 7
.text
main:
  la  r1, a
  ldq r2, 0(r1)
.data
b: .word 9
.text
  la  r3, b
  ldq r4, 0(r3)
  halt
`
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Symbols["a"] == p.Symbols["b"] {
		t.Error("data symbols collided")
	}
}

func TestMultipleLabelsOneDirective(t *testing.T) {
	src := `
.data
first: second: .word 42
.text
main:
  la r1, first
  la r2, second
  halt
`
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Symbols["first"] != p.Symbols["second"] {
		t.Error("aliased labels differ")
	}
}

func TestNegativeAndHexDataValues(t *testing.T) {
	src := `
.data
v: .word -1, 0xFFFFFFFFFFFFFFFF, 0x10
.text
main:
  halt
`
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Data) == 0 || len(p.Data[0].Bytes) != 24 {
		t.Fatalf("data segment wrong: %+v", p.Data)
	}
	for i := 0; i < 8; i++ {
		if p.Data[0].Bytes[i] != 0xFF {
			t.Fatalf("-1 encoded wrong at byte %d", i)
		}
	}
}

func TestBuilderPCTracksEmission(t *testing.T) {
	b := NewBuilder()
	start := b.PC()
	b.Emit(isa.Inst{Op: isa.OpNOP})
	b.Emit(isa.Inst{Op: isa.OpNOP})
	if b.PC() != start+8 {
		t.Errorf("PC = %#x, want %#x", b.PC(), start+8)
	}
}

func TestFixupOnNonControlRejected(t *testing.T) {
	b := NewBuilder()
	b.fixups = append(b.fixups, fixup{0, "x"})
	b.RR(isa.OpADD, isa.IntReg(1), isa.IntReg(2), isa.IntReg(3))
	b.Label("x")
	if _, err := b.Finish(); err == nil {
		t.Fatal("label fixup on non-control instruction not rejected")
	}
}

// TestLiFrontendsAgree checks that Builder.Li and the text assembler's li
// expand every value class to the same words, and that those words are the
// ones the built-in workload images were recorded with.
func TestLiFrontendsAgree(t *testing.T) {
	cases := []struct {
		v     int64
		words string
	}{
		{0, "08050000"},
		{-1, "0805ffff"},
		{0x7FFF, "08057fff"},
		{-0x8000, "08058000"},
		{0x8000, "28050000 10a58000"},
		{0x12340000, "28051234"},
		{0x12345678, "28051234 10a55678"},
		{-1 << 31, "28058000"},
		{0x1234_5678_9ABC, "10051234 18a50010 10a55678 18a50010 10a59abc"},
		{-0x1234_5678_9ABC, "1005ffff 18a50010 10a5edcb 18a50010 10a5a987 18a50010 10a56544"},
		{math.MaxInt64, "10057fff 18a50010 10a5ffff 18a50010 10a5ffff 18a50010 10a5ffff"},
		{math.MinInt64, "10058000 18a50010 18a50010 18a50010"},
	}
	hex := func(code []uint32) string {
		words := make([]string, len(code))
		for i, w := range code {
			words[i] = fmt.Sprintf("%08x", w)
		}
		return strings.Join(words, " ")
	}
	for _, c := range cases {
		b := NewBuilder()
		b.Li(isa.IntReg(5), c.v)
		built := hex(b.MustFinish().Code)
		p, err := Assemble(fmt.Sprintf("li r5, %#x", uint64(c.v)))
		if err != nil {
			t.Fatalf("li r5, %d: %v", c.v, err)
		}
		if text := hex(p.Code); built != c.words || text != c.words {
			t.Errorf("li r5, %d: builder %q, text %q, want %q", c.v, built, text, c.words)
		}
	}
}
