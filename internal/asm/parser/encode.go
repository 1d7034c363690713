package parser

import (
	"strings"

	"prisim/internal/asm/lexer"
	"prisim/internal/isa"
)

// unit is one code statement after sizing: its pc, how many words it
// emits, and — for li/la — the fully lowered expansion (their value must
// be known at sizing time, so lowering happens there too).
type unit struct {
	s    stmt
	mnem string
	pc   uint64
	n    int
	li   []isa.Inst // non-nil for li/la
	bad  bool       // sizing already reported a diagnostic; emit nops
}

// sizeCode walks the text-section statements in order, defining code
// labels at their final addresses and fixing every instruction's size.
// Only li/la are variable-length; their operand expressions are evaluated
// here, which is why they may reference any data symbol or constant but
// only code labels defined earlier in the file.
func (p *parser) sizeCode() []unit {
	units := make([]unit, 0, len(p.code))
	pc := uint64(CodeBase)
	for _, s := range p.code {
		for _, l := range s.labels {
			p.defineSymbol(l, pc)
		}
		if !s.hasHead() {
			continue
		}
		u := unit{s: s, mnem: strings.ToLower(s.head.Text), pc: pc, n: 1}
		switch u.mnem {
		case "li", "la":
			u.li, u.bad = p.lowerLi(s)
			if !u.bad {
				u.n = len(u.li)
			}
		default:
			if _, ok := isa.OpByName(u.mnem); !ok && !isPseudo(u.mnem) {
				p.errorf(s.head, "unknown mnemonic %q", s.head.Text)
				u.bad = true
			}
		}
		pc += 4 * uint64(u.n)
		units = append(units, u)
	}
	return units
}

// lowerLi lowers "li rd, expr" (and la, its alias for address-valued
// expressions) into the shortest standard expansion (isa.AppendLi).
func (p *parser) lowerLi(s stmt) ([]isa.Inst, bool) {
	if !p.requireOps(s, 2) {
		return nil, true
	}
	rd, ok := p.regOperand(s.ops[0])
	if !ok {
		return nil, true
	}
	v, ok := p.evalToks(s.ops[1])
	if !ok {
		return nil, true
	}
	return isa.AppendLi(nil, rd, int64(v)), false
}

// encodeCode is pass two over the code: every operand expression is
// evaluated (all symbols are defined now, so forward branch targets and
// references into later .data blocks resolve), targets are range-checked,
// and the instructions are encoded. Statements that already failed emit
// nops to keep subsequent addresses aligned with the sizing pass; once any
// diagnostic exists no image is produced, so the filler is never observed.
func (p *parser) encodeCode(units []unit) ([]uint32, []Pos) {
	var code []uint32
	var lines []Pos
	nop := isa.Inst{Op: isa.OpNOP}
	for _, u := range units {
		at := Pos{Line: u.s.head.Line, Col: u.s.head.Col}
		insts := u.li
		if insts == nil && !u.bad {
			in, ok := p.encodeInst(u)
			if !ok {
				u.bad = true
			} else {
				insts = []isa.Inst{in}
			}
		}
		if u.bad {
			for i := 0; i < u.n; i++ {
				w, _ := nop.Encode()
				code = append(code, w)
				lines = append(lines, at)
			}
			continue
		}
		for _, in := range insts {
			w, err := in.Encode()
			if err != nil {
				p.errorf(u.s.head, "cannot encode %s: %v", in, err)
				w, _ = nop.Encode()
			}
			code = append(code, w)
			lines = append(lines, at)
		}
	}
	return code, lines
}

// regOperand requires op to be a single register token.
func (p *parser) regOperand(op []lexer.Token) (isa.Reg, bool) {
	if len(op) != 1 || op[0].Kind != lexer.Ident {
		p.errorf(op[0], "expected register, found %s", op[0])
		return 0, false
	}
	r, err := isa.ParseReg(op[0].Text)
	if err != nil {
		p.errorf(op[0], "expected register, found %q", op[0].Text)
		return 0, false
	}
	return r, true
}

// memOperand parses "expr(reg)" or "(reg)". The base register is found by
// matching the trailing parenthesis pair, so a parenthesized offset
// expression like "(OFF+8)(r1)" parses cleanly.
func (p *parser) memOperand(op []lexer.Token) (int64, isa.Reg, bool) {
	if len(op) < 3 || op[len(op)-1].Kind != lexer.RParen {
		p.errorf(op[0], `expected memory operand "off(base)"`)
		return 0, 0, false
	}
	open := -1
	depth := 0
	for i := len(op) - 1; i >= 0; i-- {
		switch op[i].Kind {
		case lexer.RParen:
			depth++
		case lexer.LParen:
			depth--
			if depth == 0 {
				open = i
			}
		}
		if open >= 0 {
			break
		}
	}
	if open < 0 {
		p.errorf(op[len(op)-1], "unbalanced parentheses in memory operand")
		return 0, 0, false
	}
	inner := op[open+1 : len(op)-1]
	if len(inner) != 1 || inner[0].Kind != lexer.Ident {
		p.errorf(op[open], "expected base register inside parentheses")
		return 0, 0, false
	}
	base, err := isa.ParseReg(inner[0].Text)
	if err != nil {
		p.errorf(inner[0], "expected base register, found %q", inner[0].Text)
		return 0, 0, false
	}
	off := int64(0)
	if open > 0 {
		v, ok := p.evalToks(op[:open])
		if !ok {
			return 0, 0, false
		}
		off = int64(v)
	}
	return off, base, true
}

// encodeInst lowers one sized statement (everything except li/la) to a
// single instruction.
func (p *parser) encodeInst(u unit) (isa.Inst, bool) {
	s := u.s
	ops := s.ops
	bad := isa.Inst{}

	reg := func(i int) (isa.Reg, bool) {
		if i >= len(ops) {
			p.errorf(s.head, "%s: missing operand %d", u.mnem, i+1)
			return 0, false
		}
		return p.regOperand(ops[i])
	}
	imm := func(i int) (int64, bool) {
		if i >= len(ops) {
			p.errorf(s.head, "%s: missing operand %d", u.mnem, i+1)
			return 0, false
		}
		v, ok := p.evalToks(ops[i])
		return int64(v), ok
	}
	need := func(n int) bool { return p.requireOps(s, n) }

	// Pseudo-instructions first (li/la were lowered during sizing).
	switch u.mnem {
	case "mov":
		if !need(2) {
			return bad, false
		}
		rd, ok1 := reg(0)
		ra, ok2 := reg(1)
		if !ok1 || !ok2 {
			return bad, false
		}
		if rd.IsFP() || ra.IsFP() {
			return isa.Inst{Op: isa.OpFMOV, Rd: rd, Ra: ra}, true
		}
		return isa.Inst{Op: isa.OpADD, Rd: rd, Ra: ra, Rb: isa.RZero}, true
	case "beqz", "bnez":
		if !need(2) {
			return bad, false
		}
		ra, ok := reg(0)
		if !ok {
			return bad, false
		}
		op := isa.OpBEQ
		if u.mnem == "bnez" {
			op = isa.OpBNE
		}
		return p.branch(u, isa.Inst{Op: op, Ra: ra, Rb: isa.RZero}, ops[1])
	case "ret":
		if !need(0) {
			return bad, false
		}
		return isa.Inst{Op: isa.OpJR, Ra: isa.RLR}, true
	}

	op, _ := isa.OpByName(u.mnem) // known: sizing rejected unknown mnemonics
	switch op.Format() {
	case isa.FmtR:
		switch op {
		case isa.OpNOP, isa.OpHALT:
			if !need(0) {
				return bad, false
			}
			return isa.Inst{Op: op}, true
		case isa.OpPUTC, isa.OpJR:
			if !need(1) {
				return bad, false
			}
			ra, ok := reg(0)
			if !ok {
				return bad, false
			}
			return isa.Inst{Op: op, Ra: ra}, true
		case isa.OpJALR:
			// "jalr ra" (link to lr) or "jalr rd, ra".
			switch len(ops) {
			case 1:
				ra, ok := reg(0)
				if !ok {
					return bad, false
				}
				return isa.Inst{Op: op, Rd: isa.RLR, Ra: ra}, true
			case 2:
				rd, ok1 := reg(0)
				ra, ok2 := reg(1)
				if !ok1 || !ok2 {
					return bad, false
				}
				return isa.Inst{Op: op, Rd: rd, Ra: ra}, true
			default:
				p.errorf(s.head, "jalr: want 1 or 2 operands, got %d", len(ops))
				return bad, false
			}
		case isa.OpFSQRT, isa.OpFMOV, isa.OpFNEG, isa.OpFABS, isa.OpCVTIF, isa.OpCVTFI:
			if !need(2) {
				return bad, false
			}
			rd, ok1 := reg(0)
			ra, ok2 := reg(1)
			if !ok1 || !ok2 {
				return bad, false
			}
			return isa.Inst{Op: op, Rd: rd, Ra: ra}, true
		default:
			if !need(3) {
				return bad, false
			}
			rd, ok1 := reg(0)
			ra, ok2 := reg(1)
			rb, ok3 := reg(2)
			if !ok1 || !ok2 || !ok3 {
				return bad, false
			}
			return isa.Inst{Op: op, Rd: rd, Ra: ra, Rb: rb}, true
		}
	case isa.FmtI:
		if op == isa.OpLUI {
			if !need(2) {
				return bad, false
			}
			rd, ok1 := reg(0)
			v, ok2 := imm(1)
			if !ok1 || !ok2 {
				return bad, false
			}
			return isa.Inst{Op: op, Rd: rd, Ra: isa.RZero, Imm: v}, true
		}
		if !need(3) {
			return bad, false
		}
		rd, ok1 := reg(0)
		ra, ok2 := reg(1)
		v, ok3 := imm(2)
		if !ok1 || !ok2 || !ok3 {
			return bad, false
		}
		return isa.Inst{Op: op, Rd: rd, Ra: ra, Imm: v}, true
	case isa.FmtLS:
		if !need(2) {
			return bad, false
		}
		rd, ok := reg(0)
		if !ok {
			return bad, false
		}
		off, base, ok := p.memOperand(ops[1])
		if !ok {
			return bad, false
		}
		return isa.Inst{Op: op, Rd: rd, Ra: base, Imm: off}, true
	case isa.FmtB:
		if !need(3) {
			return bad, false
		}
		ra, ok1 := reg(0)
		rb, ok2 := reg(1)
		if !ok1 || !ok2 {
			return bad, false
		}
		return p.branch(u, isa.Inst{Op: op, Ra: ra, Rb: rb}, ops[2])
	case isa.FmtJ:
		if !need(1) {
			return bad, false
		}
		return p.branch(u, isa.Inst{Op: op}, ops[0])
	}
	p.errorf(s.head, "unknown mnemonic %q", s.head.Text)
	return bad, false
}

// branch evaluates a target operand and points in, the branch or jump at
// u.pc, at it (isa.Inst.SetTarget).
func (p *parser) branch(u unit, in isa.Inst, targetOp []lexer.Token) (isa.Inst, bool) {
	addr, ok := p.evalToks(targetOp)
	if !ok {
		return isa.Inst{}, false
	}
	if err := in.SetTarget(u.pc, addr); err != nil {
		p.errorf(targetOp[0], "%v", err)
		return isa.Inst{}, false
	}
	return in, true
}
