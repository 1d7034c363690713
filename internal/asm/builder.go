package asm

import (
	"encoding/binary"
	"fmt"
	"math"

	"prisim/internal/isa"
)

// Builder assembles a program from Go code. Data is declared first (each
// declaration returns its concrete address, so address materialization via
// Li needs no relocation machinery); code follows, with labels resolved when
// Finish is called.
//
// The builder panics on misuse (bad registers, duplicate labels); Finish
// returns an error for anything only detectable at link time (undefined
// labels, displacement overflow). Panics are appropriate here because the
// builder's callers are compiled-in kernel generators, not user input.
type Builder struct {
	dataNext uint64

	insts   []isa.Inst
	fixups  []fixup // branch/jump label references
	labels  map[string]int
	symbols map[string]uint64
	data    []Segment
}

type fixup struct {
	inst  int // index into insts
	label string
}

// NewBuilder returns a Builder using the default memory layout.
func NewBuilder() *Builder {
	return &Builder{
		dataNext: DefaultDataBase,
		labels:   make(map[string]int),
		symbols:  make(map[string]uint64),
	}
}

// PC returns the address of the next instruction to be emitted.
func (b *Builder) PC() uint64 { return DefaultCodeBase + 4*uint64(len(b.insts)) }

// Label defines a code label at the current position.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		panic(fmt.Sprintf("asm: duplicate label %q", name))
	}
	b.labels[name] = len(b.insts)
	b.symbols[name] = b.PC()
}

// Emit appends a raw instruction.
func (b *Builder) Emit(in isa.Inst) { b.insts = append(b.insts, in) }

// RR emits a register-register operation: op rd, ra, rb.
func (b *Builder) RR(op isa.Op, rd, ra, rb isa.Reg) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Ra: ra, Rb: rb})
}

// R1 emits a one-source register operation (fmov, fneg, fsqrt, cvt*).
func (b *Builder) R1(op isa.Op, rd, ra isa.Reg) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Ra: ra})
}

// RI emits an immediate operation: op rd, ra, imm.
func (b *Builder) RI(op isa.Op, rd, ra isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Ra: ra, Imm: imm})
}

// Load emits: op rd, off(base).
func (b *Builder) Load(op isa.Op, rd, base isa.Reg, off int64) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Ra: base, Imm: off})
}

// Store emits: op data, off(base).
func (b *Builder) Store(op isa.Op, data, base isa.Reg, off int64) {
	b.Emit(isa.Inst{Op: op, Rd: data, Ra: base, Imm: off})
}

// Br emits a conditional branch to a label.
func (b *Builder) Br(op isa.Op, ra, rb isa.Reg, label string) {
	b.fixups = append(b.fixups, fixup{len(b.insts), label})
	b.Emit(isa.Inst{Op: op, Ra: ra, Rb: rb})
}

// Beqz and Bnez are the common single-operand branch forms.
func (b *Builder) Beqz(ra isa.Reg, label string) { b.Br(isa.OpBEQ, ra, isa.RZero, label) }

// Bnez branches to label when ra is nonzero.
func (b *Builder) Bnez(ra isa.Reg, label string) { b.Br(isa.OpBNE, ra, isa.RZero, label) }

// Jmp emits an unconditional jump to a label.
func (b *Builder) Jmp(label string) {
	b.fixups = append(b.fixups, fixup{len(b.insts), label})
	b.Emit(isa.Inst{Op: isa.OpJ})
}

// Call emits jal label.
func (b *Builder) Call(label string) {
	b.fixups = append(b.fixups, fixup{len(b.insts), label})
	b.Emit(isa.Inst{Op: isa.OpJAL})
}

// Ret emits jr lr.
func (b *Builder) Ret() { b.Emit(isa.Inst{Op: isa.OpJR, Ra: isa.RLR}) }

// Mov emits rd = ra.
func (b *Builder) Mov(rd, ra isa.Reg) { b.RR(isa.OpADD, rd, ra, isa.RZero) }

// Halt emits the program-stop instruction.
func (b *Builder) Halt() { b.Emit(isa.Inst{Op: isa.OpHALT}) }

// Li loads the 64-bit constant v into rd using the shortest of the standard
// expansions (isa.AppendLi).
func (b *Builder) Li(rd isa.Reg, v int64) { b.insts = isa.AppendLi(b.insts, rd, v) }

// La loads the address of a previously declared data symbol.
func (b *Builder) La(rd isa.Reg, symbol string) {
	addr, ok := b.symbols[symbol]
	if !ok {
		panic(fmt.Sprintf("asm: La of undeclared symbol %q (declare data before code)", symbol))
	}
	b.Li(rd, int64(addr))
}

// align rounds the data cursor up to a multiple of n (a power of two).
func (b *Builder) align(n uint64) { b.dataNext = (b.dataNext + n - 1) &^ (n - 1) }

// Bytes declares an initialized byte array in the data segment and returns
// its address. The name is recorded as a symbol (empty name allowed).
func (b *Builder) Bytes(name string, data []byte) uint64 {
	b.align(8)
	addr := b.dataNext
	seg := Segment{Base: addr, Bytes: append([]byte(nil), data...)}
	b.data = append(b.data, seg)
	b.dataNext += uint64(len(data))
	if name != "" {
		b.defineDataSymbol(name, addr)
	}
	return addr
}

// Words declares an initialized array of 64-bit words and returns its address.
func (b *Builder) Words(name string, words []uint64) uint64 {
	buf := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(buf[8*i:], w)
	}
	return b.Bytes(name, buf)
}

// Floats declares an initialized array of float64 values and returns its address.
func (b *Builder) Floats(name string, vals []float64) uint64 {
	words := make([]uint64, len(vals))
	for i, v := range vals {
		words[i] = math.Float64bits(v)
	}
	return b.Words(name, words)
}

// Space reserves n zeroed bytes and returns their address. Zeroed space
// costs nothing in the image: the emulator's memory reads as zero by
// default, so only the symbol and layout advance are recorded.
func (b *Builder) Space(name string, n uint64) uint64 {
	b.align(8)
	addr := b.dataNext
	b.dataNext += n
	if name != "" {
		b.defineDataSymbol(name, addr)
	}
	return addr
}

func (b *Builder) defineDataSymbol(name string, addr uint64) {
	if _, dup := b.symbols[name]; dup {
		panic(fmt.Sprintf("asm: duplicate symbol %q", name))
	}
	b.symbols[name] = addr
}

// Finish resolves labels and encodes the program. The entry point is the
// label "main" if defined, otherwise the first instruction.
func (b *Builder) Finish() (*Program, error) {
	for _, f := range b.fixups {
		idx, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("asm: undefined label %q", f.label)
		}
		pc := DefaultCodeBase + 4*uint64(f.inst)
		if err := b.insts[f.inst].SetTarget(pc, DefaultCodeBase+4*uint64(idx)); err != nil {
			return nil, fmt.Errorf("asm: label %q: %w", f.label, err)
		}
	}
	code := make([]uint32, len(b.insts))
	for i, in := range b.insts {
		w, err := in.Encode()
		if err != nil {
			return nil, fmt.Errorf("asm: instruction %d (%s): %w", i, in, err)
		}
		code[i] = w
	}
	entry := uint64(DefaultCodeBase)
	if idx, ok := b.labels["main"]; ok {
		entry = DefaultCodeBase + 4*uint64(idx)
	}
	syms := make(map[string]uint64, len(b.symbols))
	for k, v := range b.symbols {
		syms[k] = v
	}
	return &Program{
		Entry:    entry,
		CodeBase: DefaultCodeBase,
		Code:     code,
		Data:     append([]Segment(nil), b.data...),
		Symbols:  syms,
		DataEnd:  b.dataNext,
	}, nil
}

// MustFinish is Finish for programs known valid by construction.
func (b *Builder) MustFinish() *Program {
	p, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return p
}
