package isa

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRegNames(t *testing.T) {
	cases := []struct {
		r    Reg
		want string
	}{
		{RZero, "zero"}, {RSP, "sp"}, {RLR, "lr"},
		{IntReg(7), "r7"}, {FPReg(0), "f0"}, {FPReg(31), "f31"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("Reg(%d).String() = %q, want %q", c.r, got, c.want)
		}
		back, err := ParseReg(c.want)
		if err != nil || back != c.r {
			t.Errorf("ParseReg(%q) = %v, %v; want %v", c.want, back, err, c.r)
		}
	}
}

func TestParseRegErrors(t *testing.T) {
	for _, s := range []string{"", "r", "r32", "f32", "x3", "r-1", "r1x", "f100"} {
		if r, err := ParseReg(s); err == nil {
			t.Errorf("ParseReg(%q) = %v, want error", s, r)
		}
	}
}

func TestRegClassification(t *testing.T) {
	if !FPReg(3).IsFP() || IntReg(3).IsFP() {
		t.Fatal("IsFP misclassifies")
	}
	if FPReg(3).Index() != 3 || IntReg(3).Index() != 3 {
		t.Fatal("Index wrong")
	}
	if !RZero.IsZero() || IntReg(1).IsZero() {
		t.Fatal("IsZero wrong")
	}
	if Reg(64).Valid() {
		t.Fatal("Reg(64) should be invalid")
	}
}

func TestOpTableComplete(t *testing.T) {
	for _, op := range AllOps() {
		if op.Name() == "" || op.Name() == "op?" {
			t.Errorf("op %d has no name", op)
		}
		if op.Latency() < 1 {
			t.Errorf("%s has latency %d", op, op.Latency())
		}
		got, ok := OpByName(op.Name())
		if !ok || got != op {
			t.Errorf("OpByName(%q) = %v, %v", op.Name(), got, ok)
		}
	}
	if _, ok := OpByName("bogus"); ok {
		t.Error("OpByName accepted bogus mnemonic")
	}
}

func TestOpPredicatesConsistent(t *testing.T) {
	for _, op := range AllOps() {
		if op.IsLoad() && op.IsStore() {
			t.Errorf("%s both load and store", op)
		}
		if op.IsMem() != (op.IsLoad() || op.IsStore()) {
			t.Errorf("%s IsMem inconsistent", op)
		}
		if op.IsBranch() && op.IsJump() {
			t.Errorf("%s both branch and jump", op)
		}
		if op.IsLoad() && !op.WritesRd() {
			t.Errorf("load %s does not write rd", op)
		}
		if op.IsStore() && op.WritesRd() {
			t.Errorf("store %s writes rd", op)
		}
		if op.IsMem() && op.Class() != FUMem {
			t.Errorf("%s is mem but class %v", op, op.Class())
		}
	}
}

// sampleInst builds a representative valid instruction for each op.
func sampleInst(op Op) Inst {
	in := Inst{Op: op}
	pick := func(fp bool, i int) Reg {
		if fp {
			return FPReg(i)
		}
		return IntReg(i)
	}
	switch op.Format() {
	case FmtR:
		in.Ra = pick(op.RaIsFP(), 1)
		in.Rb = pick(op.RbIsFP(), 2)
		in.Rd = pick(op.RdIsFP(), 3)
	case FmtI, FmtLS:
		in.Ra = IntReg(4)
		in.Rd = pick(op.RdIsFP(), 5)
		if op.ImmZeroExtended() {
			in.Imm = 0xFEDC
		} else {
			in.Imm = -12
		}
	case FmtB:
		in.Ra = IntReg(6)
		in.Rb = IntReg(7)
		in.Imm = -3
	case FmtJ:
		in.Imm = 0x123456
		if op == OpJAL {
			in.Rd = RLR // implicit link destination, set by Decode
		}
	}
	return in
}

func TestEncodeDecodeRoundTripAllOps(t *testing.T) {
	for _, op := range AllOps() {
		in := sampleInst(op)
		w, err := in.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", op, err)
		}
		back := Decode(w)
		if back != in {
			t.Errorf("%s: round trip %+v -> %#x -> %+v", op, in, w, back)
		}
	}
}

func TestEncodeDecodeRoundTripQuick(t *testing.T) {
	ops := AllOps()
	f := func(opIdx uint8, ra, rb, rd uint8, imm int16, j uint32) bool {
		op := ops[int(opIdx)%len(ops)]
		in := Inst{Op: op}
		pick := func(fp bool, i uint8) Reg {
			if fp {
				return FPReg(int(i) % NumFPRegs)
			}
			return IntReg(int(i) % NumIntRegs)
		}
		switch op.Format() {
		case FmtR:
			in.Ra = pick(op.RaIsFP(), ra)
			in.Rb = pick(op.RbIsFP(), rb)
			in.Rd = pick(op.RdIsFP(), rd)
		case FmtI, FmtLS:
			in.Ra = pick(false, ra)
			in.Rd = pick(op.RdIsFP(), rd)
			if op.ImmZeroExtended() {
				in.Imm = int64(uint16(imm))
			} else {
				in.Imm = int64(imm)
			}
		case FmtB:
			in.Ra = pick(false, ra)
			in.Rb = pick(false, rb)
			in.Imm = int64(imm)
		case FmtJ:
			in.Imm = int64(j & (1<<26 - 1))
			if op == OpJAL {
				in.Rd = RLR
			}
		}
		w, err := in.Encode()
		if err != nil {
			return false
		}
		return Decode(w) == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestEncodeRangeErrors(t *testing.T) {
	if _, err := (Inst{Op: OpADDI, Rd: IntReg(1), Ra: IntReg(2), Imm: 40000}).Encode(); err == nil {
		t.Error("oversized immediate encoded")
	}
	if _, err := (Inst{Op: OpBEQ, Ra: IntReg(1), Rb: IntReg(2), Imm: -40000}).Encode(); err == nil {
		t.Error("oversized displacement encoded")
	}
	if _, err := (Inst{Op: OpJ, Imm: 1 << 26}).Encode(); err == nil {
		t.Error("oversized jump target encoded")
	}
	if _, err := (Inst{Op: OpFADD, Rd: IntReg(1), Ra: FPReg(2), Rb: FPReg(3)}).Encode(); err == nil {
		t.Error("wrong-file register encoded")
	}
}

func TestDecodeInvalid(t *testing.T) {
	if in := Decode(0xFFFFFFFF); in.Op != OpInvalid {
		t.Errorf("Decode garbage = %v, want invalid", in.Op)
	}
}

func TestDestAndSources(t *testing.T) {
	add := Inst{Op: OpADD, Rd: IntReg(3), Ra: IntReg(1), Rb: IntReg(2)}
	if d, ok := add.Dest(); !ok || d != IntReg(3) {
		t.Errorf("add dest = %v %v", d, ok)
	}
	srcs := add.Sources(nil)
	if len(srcs) != 2 || srcs[0] != IntReg(1) || srcs[1] != IntReg(2) {
		t.Errorf("add sources = %v", srcs)
	}

	// Writes to zero register have no destination.
	addz := Inst{Op: OpADD, Rd: RZero, Ra: IntReg(1), Rb: IntReg(2)}
	if _, ok := addz.Dest(); ok {
		t.Error("write to zero register reported as destination")
	}

	// Zero-register sources are omitted.
	addz2 := Inst{Op: OpADD, Rd: IntReg(3), Ra: RZero, Rb: IntReg(2)}
	if got := addz2.Sources(nil); len(got) != 1 || got[0] != IntReg(2) {
		t.Errorf("sources with zero ra = %v", got)
	}

	// Stores read their data register.
	st := Inst{Op: OpSTQ, Rd: IntReg(5), Ra: IntReg(6), Imm: 8}
	if _, ok := st.Dest(); ok {
		t.Error("store has a destination")
	}
	s := st.Sources(nil)
	if len(s) != 2 || s[0] != IntReg(6) || s[1] != IntReg(5) {
		t.Errorf("store sources = %v", s)
	}

	// FP ops report FP registers.
	fadd := Inst{Op: OpFADD, Rd: FPReg(1), Ra: FPReg(2), Rb: FPReg(3)}
	if d, ok := fadd.Dest(); !ok || !d.IsFP() {
		t.Errorf("fadd dest = %v %v", d, ok)
	}
}

func TestBranchTarget(t *testing.T) {
	b := Inst{Op: OpBEQ, Ra: IntReg(1), Rb: IntReg(2), Imm: 3}
	if got := b.BranchTarget(0x1000); got != 0x1000+4+12 {
		t.Errorf("branch target = %#x", got)
	}
	bneg := Inst{Op: OpBNE, Ra: IntReg(1), Rb: IntReg(2), Imm: -2}
	if got := bneg.BranchTarget(0x1000); got != 0x1000+4-8 {
		t.Errorf("backward branch target = %#x", got)
	}
	j := Inst{Op: OpJ, Imm: 0x400}
	if got := j.BranchTarget(0x1000); got != 0x1000 {
		t.Errorf("jump target = %#x, want 0x1000", got)
	}
}

// TestSetTarget checks the one branch and jump target rule both assembler
// front ends use: alignment, the 16-bit branch displacement, and the 256MB
// region of pc+4 for jumps. Every accepted target reads back through
// BranchTarget.
func TestSetTarget(t *testing.T) {
	set := func(op Op, pc, target uint64) (Inst, error) {
		in := Inst{Op: op, Ra: IntReg(1), Rb: IntReg(2)}
		err := in.SetTarget(pc, target)
		if err == nil && in.BranchTarget(pc) != target {
			t.Errorf("%s at %#x: BranchTarget = %#x, want %#x", op, pc, in.BranchTarget(pc), target)
		}
		return in, err
	}
	const pc = 0x0010_0000
	for _, op := range []Op{OpBEQ, OpJ} {
		if _, err := set(op, pc, pc+6); err == nil {
			t.Errorf("%s to a misaligned target accepted", op)
		}
	}
	for _, disp := range []int64{0x7FFF, -0x8000, 0x8000, -0x8001} {
		in, err := set(OpBNE, pc, uint64(pc+4+4*disp))
		if fits := disp >= -0x8000 && disp <= 0x7FFF; fits != (err == nil) {
			t.Errorf("branch displacement %d: err = %v", disp, err)
		} else if fits && in.Imm != disp {
			t.Errorf("branch displacement %d encoded as %d", disp, in.Imm)
		}
	}
	// A jump's region is that of pc+4, not of pc.
	if _, err := set(OpJ, 0x0FFF_FFFC, 0x1000_0008); err != nil {
		t.Errorf("jump whose pc+4 shares the target's region rejected: %v", err)
	}
	if _, err := set(OpJAL, 0x0FFF_FFF8, 0x1000_0000); err == nil {
		t.Error("jump into the next 256MB region accepted")
	}
	if _, err := set(OpADD, pc, pc+8); err == nil {
		t.Error("target set on a non-control instruction")
	}
}

func TestIsReturn(t *testing.T) {
	if !(Inst{Op: OpJR, Ra: RLR}).IsReturn() {
		t.Error("jr lr not a return")
	}
	if (Inst{Op: OpJR, Ra: IntReg(5)}).IsReturn() {
		t.Error("jr r5 reported as return")
	}
}

func TestDisassemblyStrings(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpADD, Rd: IntReg(3), Ra: IntReg(1), Rb: IntReg(2)}, "add r3, r1, r2"},
		{Inst{Op: OpADDI, Rd: IntReg(3), Ra: IntReg(1), Imm: -5}, "addi r3, r1, -5"},
		{Inst{Op: OpLDQ, Rd: IntReg(3), Ra: RSP, Imm: 16}, "ldq r3, 16(sp)"},
		{Inst{Op: OpBEQ, Ra: IntReg(1), Rb: RZero, Imm: 4}, "beq r1, zero, 4"},
		{Inst{Op: OpJR, Ra: RLR}, "jr lr"},
		{Inst{Op: OpNOP}, "nop"},
		{Inst{Op: OpLUI, Rd: IntReg(2), Imm: 7}, "lui r2, 7"},
		{Inst{Op: OpFMOV, Rd: FPReg(1), Ra: FPReg(2)}, "fmov f1, f2"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestSignificantBits(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 1}, {^uint64(0), 1}, {1, 2}, {2, 3}, {3, 3}, {4, 4},
		{0x7F, 8}, {0x80, 9},
		{0xFFFFFFFFFFFFFFFE, 2}, {0xFFFFFFFFFFFFFFFD, 3}, {0xFFFFFFFFFFFFFF80, 8}, {0xFFFFFFFFFFFFFF7F, 9},
		{1 << 62, 64}, {uint64(1) << 63, 64},
	}
	for _, c := range cases {
		if got := SignificantBits(c.v); got != c.want {
			t.Errorf("SignificantBits(%#x) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestFitsSignedMatchesSignExtend(t *testing.T) {
	f := func(v uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		fits := FitsSigned(v, n)
		// The definitive check: v survives truncation+sign-extension iff it fits.
		return fits == (SignExtend(v, n) == v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Error(err)
	}
	if FitsSigned(5, 0) {
		t.Error("FitsSigned(_, 0) should be false")
	}
	if !FitsSigned(1<<63, 64) {
		t.Error("everything fits in 64 bits")
	}
}

func TestSignExtend(t *testing.T) {
	if got := SignExtend(0x7F, 7); got != ^uint64(0) {
		t.Errorf("SignExtend(0x7F, 7) = %#x, want all ones", got)
	}
	if got := SignExtend(0x3F, 7); got != 0x3F {
		t.Errorf("SignExtend(0x3F, 7) = %#x", got)
	}
	if got := SignExtend(0xFFFF, 64); got != 0xFFFF {
		t.Errorf("SignExtend full width = %#x", got)
	}
}

func TestFPTrivial(t *testing.T) {
	if !FPTrivial(0) || !FPTrivial(^uint64(0)) {
		t.Error("all-zero / all-one patterns are trivial")
	}
	if FPTrivial(math.Float64bits(1.0)) {
		t.Error("1.0 is not trivial")
	}
}

func TestFPFieldBits(t *testing.T) {
	if FPExponentBits(0) != 0 {
		t.Error("zero exponent should be 0 bits")
	}
	if FPSignificandBits(0) != 0 {
		t.Error("zero fraction should be 0 bits")
	}
	one := math.Float64bits(1.0) // exponent 0x3FF, fraction 0
	if FPSignificandBits(one) != 0 {
		t.Errorf("1.0 fraction bits = %d", FPSignificandBits(one))
	}
	if b := FPExponentBits(one); b <= 0 || b > 11 {
		t.Errorf("1.0 exponent bits = %d", b)
	}
	half := math.Float64bits(1.5) // fraction 0x8000000000000
	if got := FPSignificandBits(half); got != 1 {
		t.Errorf("1.5 significand bits = %d, want 1", got)
	}
	pi := math.Float64bits(math.Pi)
	if got := FPSignificandBits(pi); got <= 40 {
		t.Errorf("pi significand bits = %d, want near 52", got)
	}
}

func TestFUClassString(t *testing.T) {
	for c := FUClass(0); c < NumFUClasses; c++ {
		if c.String() == "fu?" {
			t.Errorf("class %d has no name", c)
		}
	}
}
