package isa

import "fmt"

// Inst is a decoded PRISC-64 instruction. Register fields hold architected
// register names in the unified 0..63 space (FP registers already offset by
// F0), so downstream consumers never need to consult the opcode to know
// which file an operand lives in.
//
// Imm holds, depending on format: the sign-extended 16-bit immediate (FmtI,
// FmtLS), the branch displacement in instructions (FmtB), or the 26-bit
// word-granular jump region target (FmtJ).
type Inst struct {
	Op  Op
	Rd  Reg
	Ra  Reg
	Rb  Reg
	Imm int64
}

// Dest returns the destination register and whether the instruction writes
// one. Writes to the integer zero register are reported as no destination.
func (in Inst) Dest() (Reg, bool) {
	if !in.Op.WritesRd() || in.Rd == RZero {
		return 0, false
	}
	return in.Rd, true
}

// Sources appends the architected source registers of the instruction to dst
// and returns the extended slice. The hardwired zero register is omitted:
// it is always ready and never renamed. Stores contribute their data
// register; branches both comparands; JR/JALR the target register.
func (in Inst) Sources(dst []Reg) []Reg {
	if in.Op.readsRa() && in.Ra != RZero {
		dst = append(dst, in.Ra)
	}
	if in.Op.readsRb() && in.Rb != RZero {
		dst = append(dst, in.Rb)
	}
	if in.Op.readsRdData() && in.Rd != RZero {
		dst = append(dst, in.Rd)
	}
	return dst
}

// BranchTarget returns the target of a direct branch or jump located at pc.
// It panics for indirect jumps, whose target comes from a register.
func (in Inst) BranchTarget(pc uint64) uint64 {
	switch in.Op.Format() {
	case FmtB:
		return pc + 4 + uint64(in.Imm)*4
	case FmtJ:
		// MIPS-style region jump: top bits of PC+4, replaced low 28 bits.
		return (pc+4)&^uint64(1<<28-1) | uint64(in.Imm)<<2
	}
	panic(fmt.Sprintf("isa: BranchTarget on %s", in.Op))
}

// SetTarget points the direct branch or jump located at pc at target: the
// inverse of BranchTarget. It rejects a target that is not
// instruction-aligned, a branch displacement outside 16 bits, a jump
// target outside the 256MB region of pc+4, and any other instruction.
func (in *Inst) SetTarget(pc, target uint64) error {
	kind := "branch"
	switch in.Op.Format() {
	case FmtB:
	case FmtJ:
		kind = "jump"
	default:
		return fmt.Errorf("%s takes no branch target", in.Op)
	}
	if target%4 != 0 {
		return fmt.Errorf("%s target %#x is not instruction-aligned", kind, target)
	}
	if kind == "jump" {
		if target>>28 != (pc+4)>>28 {
			return fmt.Errorf("jump target %#x crosses a 256MB region", target)
		}
		in.Imm = int64(target>>2) & (1<<26 - 1)
		return nil
	}
	disp := (int64(target) - int64(pc) - 4) / 4
	if disp < immMin || disp > immMax {
		return fmt.Errorf("branch target out of range (%d instructions away)", disp)
	}
	in.Imm = disp
	return nil
}

// AppendLi appends the shortest standard expansion that loads the 64-bit
// constant v into rd: addi for a 16-bit signed value, lui and ori for a
// 32-bit signed one, and otherwise ori/slli over 16-bit chunks, most
// significant first. Leading zero chunks are skipped, which keeps common
// 48-bit addresses at 5 instructions.
func AppendLi(dst []Inst, rd Reg, v int64) []Inst {
	switch {
	case v >= immMin && v <= immMax:
		return append(dst, Inst{Op: OpADDI, Rd: rd, Ra: RZero, Imm: v})
	case v >= -(1<<31) && v < 1<<31:
		dst = append(dst, Inst{Op: OpLUI, Rd: rd, Ra: RZero, Imm: int64(int16(v >> 16))})
		if lo := v & 0xFFFF; lo != 0 {
			dst = append(dst, Inst{Op: OpORI, Rd: rd, Ra: rd, Imm: lo})
		}
		return dst
	}
	// Outside the 32-bit range some chunk above bit 16 is nonzero.
	u := uint64(v)
	shift := 48
	for u>>shift == 0 {
		shift -= 16
	}
	dst = append(dst, Inst{Op: OpORI, Rd: rd, Ra: RZero, Imm: int64(u>>shift) & 0xFFFF})
	for shift -= 16; shift >= 0; shift -= 16 {
		dst = append(dst, Inst{Op: OpSLLI, Rd: rd, Ra: rd, Imm: 16})
		if chunk := int64(u>>shift) & 0xFFFF; chunk != 0 {
			dst = append(dst, Inst{Op: OpORI, Rd: rd, Ra: rd, Imm: chunk})
		}
	}
	return dst
}

// IsReturn reports whether the instruction is the conventional function
// return (jr lr), which pops the return-address stack.
func (in Inst) IsReturn() bool { return in.Op == OpJR && in.Ra == RLR }

const (
	immMin = -(1 << 15)
	immMax = 1<<15 - 1
)

// Encode packs the instruction into its 32-bit binary form. It returns an
// error when an operand does not fit its field, so the assembler can report
// range problems at build time.
func (in Inst) Encode() (uint32, error) {
	info := opTable[in.Op]
	w := info.primary << 26
	regField := func(r Reg, fp bool, what string) (uint32, error) {
		if !r.Valid() {
			return 0, fmt.Errorf("isa: %s: invalid %s register %d", in.Op, what, r)
		}
		if r.IsFP() != fp {
			return 0, fmt.Errorf("isa: %s: %s register %s is in the wrong file", in.Op, what, r)
		}
		return uint32(r.Index()), nil
	}
	switch info.format {
	case FmtR:
		ra, err := regField(in.Ra, in.Op.RaIsFP(), "ra")
		if err != nil {
			return 0, err
		}
		rb, err := regField(in.Rb, in.Op.RbIsFP(), "rb")
		if err != nil {
			return 0, err
		}
		rd, err := regField(in.Rd, in.Op.RdIsFP(), "rd")
		if err != nil {
			return 0, err
		}
		w |= ra<<21 | rb<<16 | rd<<11 | info.funct
	case FmtI, FmtLS:
		ra, err := regField(in.Ra, false, "ra")
		if err != nil {
			return 0, err
		}
		rd, err := regField(in.Rd, in.Op.RdIsFP(), "rd")
		if err != nil {
			return 0, err
		}
		lo, hi := int64(immMin), int64(immMax)
		if in.Op.ImmZeroExtended() {
			lo, hi = 0, 0xFFFF
		}
		if in.Imm < lo || in.Imm > hi {
			return 0, fmt.Errorf("isa: %s: immediate %d out of 16-bit range", in.Op, in.Imm)
		}
		w |= ra<<21 | rd<<16 | uint32(uint16(in.Imm))
	case FmtB:
		ra, err := regField(in.Ra, false, "ra")
		if err != nil {
			return 0, err
		}
		rb, err := regField(in.Rb, false, "rb")
		if err != nil {
			return 0, err
		}
		if in.Imm < immMin || in.Imm > immMax {
			return 0, fmt.Errorf("isa: %s: displacement %d out of 16-bit range", in.Op, in.Imm)
		}
		w |= ra<<21 | rb<<16 | uint32(uint16(in.Imm))
	case FmtJ:
		if in.Imm < 0 || in.Imm >= 1<<26 {
			return 0, fmt.Errorf("isa: %s: target %d out of 26-bit range", in.Op, in.Imm)
		}
		w |= uint32(in.Imm)
	}
	return w, nil
}

// decodeTable maps (primary<<6 | funct-if-primary-0-or-1) to Op. A flat
// dense array: the key space is 12 bits, so one indexed load replaces the
// map probe (and its hash) the decoder used to pay on every fetch.
// Unpopulated entries hold OpInvalid, which is exactly the desired decode
// for unrecognized encodings.
var decodeTable = func() [1 << 12]Op {
	var t [1 << 12]Op
	for op := Op(1); op < numOps; op++ {
		info := opTable[op]
		key := info.primary << 6
		if info.primary <= 1 {
			key |= info.funct
		}
		t[key] = op
	}
	return t
}()

// Decode unpacks a 32-bit instruction word. Unrecognized encodings decode to
// OpInvalid rather than failing, matching hardware behaviour when fetch runs
// down a wrong path into non-code bytes.
func Decode(w uint32) Inst {
	primary := w >> 26
	key := primary << 6
	if primary <= 1 {
		key |= w & 63
	}
	op := decodeTable[key]
	if op == OpInvalid {
		return Inst{Op: OpInvalid}
	}
	in := Inst{Op: op}
	reg := func(field uint32, fp bool) Reg {
		if fp {
			return FPReg(int(field & 31))
		}
		return IntReg(int(field & 31))
	}
	switch op.Format() {
	case FmtR:
		in.Ra = reg(w>>21, op.RaIsFP())
		in.Rb = reg(w>>16, op.RbIsFP())
		in.Rd = reg(w>>11, op.RdIsFP())
	case FmtI, FmtLS:
		in.Ra = reg(w>>21, false)
		in.Rd = reg(w>>16, op.RdIsFP())
		if op.ImmZeroExtended() {
			in.Imm = int64(uint16(w))
		} else {
			in.Imm = int64(int16(w))
		}
	case FmtB:
		in.Ra = reg(w>>21, false)
		in.Rb = reg(w>>16, false)
		in.Imm = int64(int16(w))
	case FmtJ:
		in.Imm = int64(w & (1<<26 - 1))
		if op == OpJAL {
			in.Rd = RLR // the link register is an implicit destination
		}
	}
	return in
}

// String disassembles the instruction in conventional syntax.
func (in Inst) String() string {
	switch in.Op.Format() {
	case FmtR:
		switch {
		case in.Op == OpNOP || in.Op == OpHALT:
			return in.Op.Name()
		case in.Op == OpPUTC:
			return fmt.Sprintf("%s %s", in.Op, in.Ra)
		case in.Op == OpJR:
			return fmt.Sprintf("%s %s", in.Op, in.Ra)
		case in.Op == OpJALR:
			return fmt.Sprintf("%s %s, %s", in.Op, in.Rd, in.Ra)
		case in.Op == OpFSQRT || in.Op == OpFMOV || in.Op == OpFNEG || in.Op == OpFABS ||
			in.Op == OpCVTIF || in.Op == OpCVTFI:
			return fmt.Sprintf("%s %s, %s", in.Op, in.Rd, in.Ra)
		default:
			return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rd, in.Ra, in.Rb)
		}
	case FmtI:
		if in.Op == OpLUI {
			return fmt.Sprintf("%s %s, %d", in.Op, in.Rd, in.Imm)
		}
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Rd, in.Ra, in.Imm)
	case FmtLS:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Rd, in.Imm, in.Ra)
	case FmtB:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Ra, in.Rb, in.Imm)
	case FmtJ:
		return fmt.Sprintf("%s 0x%x", in.Op, in.Imm<<2)
	}
	return in.Op.Name()
}
