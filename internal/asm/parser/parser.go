// Package parser assembles PRISC-64 assembly text into a linked program
// image. It sits on internal/asm/lexer's token stream and is wrapped by
// internal/asm, whose Assemble converts the Image into an asm.Program.
//
// Compared with the old line-splitting frontend it adds constant
// expressions (.word 3*N+1, ldq r2, (OFF+8)(r1)), .equ/.set constants,
// .macro/.endm with parameters and \@ unique-label counters, .align,
// .ascii/.asciz, and forward references from code to data declared in a
// later .data block. Diagnostics carry file:line:col plus a source excerpt
// and are collected (up to a cap) rather than first-error-wins.
//
// Assembly is two passes over the statement list (after macro expansion).
// Pass one lays out data and defines every data symbol and constant in
// textual order — data sizes never depend on code — then sizes the code,
// defining code labels as it goes; li/la expansions need their value at
// sizing time, which is why their operands may name any data symbol or
// constant but only already-defined code labels. Pass two evaluates the
// remaining expressions (all symbols now known), resolves branch and jump
// targets, and encodes.
//
//prisim:deterministic
package parser

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"prisim/internal/asm/lexer"
	"prisim/internal/isa"
)

// The memory layout of every assembled program.
const (
	// CodeBase is where the code segment is loaded.
	CodeBase = 0x0001_0000
	// DataBase is where the data section is laid out.
	DataBase = 0x0100_0000
)

// Segment is a contiguous run of initialized memory.
type Segment struct {
	Base  uint64
	Bytes []byte
}

// Pos is a 1-based source position.
type Pos struct {
	Line int
	Col  int
}

// Image is a fully linked program loaded at CodeBase: the parser's output.
type Image struct {
	Entry uint64
	Code  []uint32
	Data  []Segment
	// Symbols holds labels and data symbols. .equ/.set constants are not
	// included: they are values, not addresses, and would pollute
	// address-keyed disassembly annotations.
	Symbols map[string]uint64
	// Lines maps each code word to the source position of the statement
	// that emitted it (li/la expansion words share their statement's
	// position). len(Lines) == len(Code).
	Lines []Pos
	// DataEnd is the first address past the laid-out data section,
	// including .space reservations, which materialize no Segment.
	DataEnd uint64
}

// Parse assembles src, naming file in diagnostics ("<input>" when empty).
// On failure the returned error is an *Error carrying every collected
// Diagnostic in source order.
func Parse(file, src string) (*Image, error) {
	if file == "" {
		file = "<input>"
	}
	p := &parser{
		file:     file,
		srcLines: strings.Split(src, "\n"),
		symbols:  make(map[string]uint64),
		consts:   make(map[string]uint64),
		macros:   make(map[string]*macro),
		dataNext: DataBase,
	}
	lines := p.scanLines(src)
	lines = p.expandMacros(lines, 0)
	for _, line := range lines {
		if s, ok := p.parseStmt(line); ok {
			p.process(s)
		}
	}
	p.flushOrphanLabels()
	units := p.sizeCode()
	code, codeLines := p.encodeCode(units)
	data := p.fillData()
	if len(p.diags) > 0 {
		sortDiags(p.diags)
		return nil, &Error{Diags: p.diags}
	}
	entry := uint64(CodeBase)
	if addr, ok := p.symbols["main"]; ok {
		entry = addr
	}
	return &Image{
		Entry:   entry,
		Code:    code,
		Data:    data,
		Symbols: p.symbols,
		Lines:   codeLines,
		DataEnd: p.dataNext,
	}, nil
}

const (
	secText = iota
	secData
)

type parser struct {
	file     string
	srcLines []string

	diags      []Diagnostic
	diagsFull  bool // cap reached; suppress further reports
	symbols    map[string]uint64
	consts     map[string]uint64
	macros     map[string]*macro
	expansions int // \@ counter, bumped once per macro invocation

	section       int
	pendingLabels []lexer.Token // data labels awaiting a sized directive
	dataNext      uint64
	items         []dataItem
	code          []stmt
}

// errorf records one diagnostic at tok's position.
func (p *parser) errorf(tok lexer.Token, format string, args ...any) {
	if p.diagsFull {
		return
	}
	if len(p.diags) >= maxDiagnostics {
		p.diags = append(p.diags, Diagnostic{
			File: p.file, Line: tok.Line, Col: tok.Col,
			Msg: fmt.Sprintf("too many errors (stopping after %d)", maxDiagnostics),
		})
		p.diagsFull = true
		return
	}
	excerpt := ""
	if tok.Line >= 1 && tok.Line <= len(p.srcLines) {
		excerpt = strings.TrimRight(p.srcLines[tok.Line-1], " \t\r")
	}
	p.diags = append(p.diags, Diagnostic{
		File: p.file, Line: tok.Line, Col: tok.Col,
		Msg: fmt.Sprintf(format, args...), Excerpt: excerpt,
	})
}

// lookup resolves a symbol or constant by name.
func (p *parser) lookup(name string) (uint64, bool) {
	if v, ok := p.consts[name]; ok {
		return v, true
	}
	v, ok := p.symbols[name]
	return v, ok
}

func (p *parser) defined(name string) bool {
	_, c := p.consts[name]
	_, s := p.symbols[name]
	return c || s
}

// scanLines tokenizes src into logical lines (newline tokens stripped).
// Lexing errors become diagnostics and the offending token is dropped so
// scanning continues.
func (p *parser) scanLines(src string) [][]lexer.Token {
	var lines [][]lexer.Token
	var cur []lexer.Token
	l := lexer.New(src)
	for {
		t := l.Next()
		switch t.Kind {
		case lexer.EOF:
			if len(cur) > 0 {
				lines = append(lines, cur)
			}
			return lines
		case lexer.Newline:
			if len(cur) > 0 {
				lines = append(lines, cur)
				cur = nil
			}
		case lexer.Illegal:
			p.errorf(t, "%s", t.Text)
		default:
			cur = append(cur, t)
		}
	}
}

// --- macros ---

type macro struct {
	nameTok lexer.Token
	params  []string
	body    [][]lexer.Token
}

// maxMacroDepth bounds recursive expansion (macros invoking macros).
const maxMacroDepth = 32

func isDirective(line []lexer.Token, name string) bool {
	return len(line) > 0 && line[0].Kind == lexer.Directive &&
		strings.EqualFold(line[0].Text, name)
}

// expandMacros processes .macro/.endm definitions and splices macro
// invocations, recursively expanding bodies that invoke other macros.
func (p *parser) expandMacros(lines [][]lexer.Token, depth int) [][]lexer.Token {
	if depth > maxMacroDepth {
		if len(lines) > 0 && len(lines[0]) > 0 {
			p.errorf(lines[0][0], "macro expansion exceeds depth %d (recursive macro?)", maxMacroDepth)
		}
		return nil
	}
	var out [][]lexer.Token
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if isDirective(line, ".macro") {
			i = p.defineMacro(lines, i)
			continue
		}
		if isDirective(line, ".endm") {
			p.errorf(line[0], ".endm without a matching .macro")
			continue
		}
		// Peel any leading labels, then test for a macro invocation.
		j := 0
		for j+1 < len(line) && line[j].Kind == lexer.Ident && line[j+1].Kind == lexer.Colon {
			j += 2
		}
		m := (*macro)(nil)
		if j < len(line) && line[j].Kind == lexer.Ident {
			m = p.macros[strings.ToLower(line[j].Text)]
		}
		if m == nil {
			out = append(out, line)
			continue
		}
		if j > 0 {
			out = append(out, line[:j]) // labels bind at the expansion site
		}
		args := p.splitOperands(line[j+1:])
		if len(args) != len(m.params) {
			p.errorf(line[j], "macro %q takes %d argument(s), got %d",
				m.nameTok.Text, len(m.params), len(args))
			continue
		}
		counter := p.expansions
		p.expansions++
		expanded := make([][]lexer.Token, 0, len(m.body))
		for _, bodyLine := range m.body {
			expanded = append(expanded, p.substLine(bodyLine, m, args, counter))
		}
		out = append(out, p.expandMacros(expanded, depth+1)...)
	}
	return out
}

// defineMacro records the definition starting at lines[i] (the .macro
// line) and returns the index of its .endm line.
func (p *parser) defineMacro(lines [][]lexer.Token, i int) int {
	head := lines[i]
	m := &macro{}
	if len(head) < 2 || head[1].Kind != lexer.Ident {
		p.errorf(head[0], ".macro needs a name")
	} else {
		m.nameTok = head[1]
		for _, t := range head[2:] {
			switch t.Kind {
			case lexer.Ident:
				m.params = append(m.params, t.Text)
			case lexer.Comma:
				// separators are optional
			default:
				p.errorf(t, "expected macro parameter name, found %s", t)
			}
		}
	}
	for i++; i < len(lines); i++ {
		line := lines[i]
		if isDirective(line, ".endm") {
			p.registerMacro(m)
			return i
		}
		if isDirective(line, ".macro") {
			p.errorf(line[0], "nested macro definitions are not supported")
		}
		m.body = append(m.body, line)
	}
	if m.nameTok.Kind == lexer.Ident {
		p.errorf(m.nameTok, "missing .endm for macro %q", m.nameTok.Text)
	} else if len(head) > 0 {
		p.errorf(head[0], "missing .endm")
	}
	return len(lines)
}

func (p *parser) registerMacro(m *macro) {
	if m.nameTok.Kind != lexer.Ident {
		return
	}
	name := strings.ToLower(m.nameTok.Text)
	if _, dup := p.macros[name]; dup {
		p.errorf(m.nameTok, "duplicate macro %q", m.nameTok.Text)
		return
	}
	if _, isOp := isa.OpByName(name); isOp || isPseudo(name) {
		p.errorf(m.nameTok, "macro %q shadows an instruction mnemonic", m.nameTok.Text)
		return
	}
	p.macros[name] = m
}

func isPseudo(mnem string) bool {
	switch mnem {
	case "li", "la", "mov", "beqz", "bnez", "ret":
		return true
	}
	return false
}

// adjacent reports whether b starts exactly where a ends on the same line,
// i.e. the two tokens were pasted together in the source (loop\@).
func adjacent(a, b lexer.Token) bool {
	return a.Line == b.Line && a.Col+a.Width() == b.Col
}

// substLine substitutes macro arguments into one body line. \param splices
// the invocation's tokens (positioned at the call site); \@ becomes the
// per-expansion counter. A one-token substitution adjacent to a preceding
// identifier pastes into it, so "loop\@:" yields a unique label per
// expansion.
func (p *parser) substLine(body []lexer.Token, m *macro, args [][]lexer.Token, counter int) []lexer.Token {
	var out []lexer.Token
	for k, t := range body {
		if t.Kind != lexer.MacroArg {
			out = append(out, t)
			continue
		}
		var repl []lexer.Token
		if t.Text == "@" {
			repl = []lexer.Token{{Kind: lexer.Int, Text: strconv.Itoa(counter), Line: t.Line, Col: t.Col}}
		} else {
			idx := -1
			for pi, name := range m.params {
				if name == t.Text {
					idx = pi
					break
				}
			}
			if idx < 0 {
				p.errorf(t, `unknown macro parameter \%s in macro %q`, t.Text, m.nameTok.Text)
				continue
			}
			repl = args[idx]
		}
		if len(repl) == 1 && (repl[0].Kind == lexer.Ident || repl[0].Kind == lexer.Int) &&
			len(out) > 0 && k > 0 && adjacent(body[k-1], t) &&
			out[len(out)-1].Kind == lexer.Ident {
			out[len(out)-1].Text += repl[0].Text
			continue
		}
		out = append(out, repl...)
	}
	return out
}

// --- statements ---

// stmt is one parsed logical line: leading labels, an optional head
// (directive or mnemonic), and its comma-separated operands.
type stmt struct {
	labels []lexer.Token
	head   lexer.Token // Kind==EOF for a label-only line
	ops    [][]lexer.Token
}

func (s *stmt) hasHead() bool { return s.head.Kind != lexer.EOF }

func (p *parser) parseStmt(line []lexer.Token) (stmt, bool) {
	var s stmt
	i := 0
	for i+1 < len(line) && line[i].Kind == lexer.Ident && line[i+1].Kind == lexer.Colon {
		s.labels = append(s.labels, line[i])
		i += 2
	}
	if i >= len(line) {
		return s, true
	}
	head := line[i]
	if head.Kind != lexer.Ident && head.Kind != lexer.Directive {
		p.errorf(head, "expected mnemonic or directive, found %s", head)
		return s, false
	}
	s.head = head
	s.ops = p.splitOperands(line[i+1:])
	return s, true
}

// splitOperands splits toks on top-level commas (commas inside parentheses
// separate nothing, so "(a, b)" stays one operand — not that any construct
// needs it; the depth tracking is what keeps "(OFF+8)(r1)" whole).
func (p *parser) splitOperands(toks []lexer.Token) [][]lexer.Token {
	if len(toks) == 0 {
		return nil
	}
	var ops [][]lexer.Token
	depth, start := 0, 0
	for i, t := range toks {
		switch t.Kind {
		case lexer.LParen:
			depth++
		case lexer.RParen:
			depth--
		case lexer.Comma:
			if depth == 0 {
				if i == start {
					p.errorf(t, "empty operand")
				} else {
					ops = append(ops, toks[start:i])
				}
				start = i + 1
			}
		}
	}
	if start < len(toks) {
		ops = append(ops, toks[start:])
	} else {
		p.errorf(toks[len(toks)-1], "trailing comma after operand")
	}
	return ops
}

func (p *parser) requireOps(s stmt, n int) bool {
	if len(s.ops) != n {
		p.errorf(s.head, "%s: want %d operand(s), got %d", s.head.Text, n, len(s.ops))
		return false
	}
	return true
}

// --- pass one: sections, data layout, constants ---

func (p *parser) process(s stmt) {
	if p.section == secData {
		p.processData(s)
	} else {
		p.processText(s)
	}
}

func (p *parser) flushOrphanLabels() {
	for _, l := range p.pendingLabels {
		p.errorf(l, "data label %q has no directive", l.Text)
	}
	p.pendingLabels = nil
}

func (p *parser) processData(s stmt) {
	p.pendingLabels = append(p.pendingLabels, s.labels...)
	if !s.hasHead() {
		return
	}
	if s.head.Kind == lexer.Ident {
		p.errorf(s.head, "instruction %q in .data section (missing .text?)", s.head.Text)
		return
	}
	switch strings.ToLower(s.head.Text) {
	case ".data":
		p.requireOps(s, 0)
	case ".text":
		p.requireOps(s, 0)
		p.flushOrphanLabels()
		p.section = secText
	case ".equ", ".set":
		p.defineConst(s)
	case ".align":
		p.alignDirective(s)
	case ".space":
		if !p.requireOps(s, 1) {
			p.bindPendingLabels(p.alignData(8))
			return
		}
		n, ok := p.evalToks(s.ops[0])
		if !ok {
			n = 0
		}
		base := p.alignData(8)
		p.bindPendingLabels(base)
		p.dataNext = base + n
	case ".word":
		p.layoutData(s, itemWord, 8*uint64(len(s.ops)))
	case ".float":
		p.layoutData(s, itemFloat, 8*uint64(len(s.ops)))
	case ".byte":
		p.layoutData(s, itemByte, uint64(len(s.ops)))
	case ".ascii":
		p.layoutData(s, itemAscii, p.stringSize(s, 0))
	case ".asciz":
		p.layoutData(s, itemAsciz, p.stringSize(s, 1))
	default:
		p.errorf(s.head, "unknown directive %q", s.head.Text)
	}
}

func (p *parser) processText(s stmt) {
	if s.hasHead() && s.head.Kind == lexer.Directive {
		// Labels on a directive line still bind at the current pc.
		if len(s.labels) > 0 {
			p.code = append(p.code, stmt{labels: s.labels})
		}
		switch strings.ToLower(s.head.Text) {
		case ".data":
			p.requireOps(s, 0)
			p.section = secData
		case ".text":
			p.requireOps(s, 0)
		case ".equ", ".set":
			p.defineConst(s)
		case ".word", ".byte", ".float", ".ascii", ".asciz", ".space", ".align":
			p.errorf(s.head, "%s is only valid in the .data section", s.head.Text)
		default:
			p.errorf(s.head, "unknown directive %q", s.head.Text)
		}
		return
	}
	p.code = append(p.code, s)
}

// defineConst handles ".equ name, expr". The expression is evaluated
// immediately, so it may reference only constants and data symbols defined
// earlier in the file. Constants are single-assignment: with deferred
// data-initializer evaluation, redefinition would make a .word's value
// depend on which definition "won", so it is rejected outright.
func (p *parser) defineConst(s stmt) {
	if !p.requireOps(s, 2) {
		return
	}
	if len(s.ops[0]) != 1 || s.ops[0][0].Kind != lexer.Ident {
		p.errorf(s.ops[0][0], "%s: expected constant name", s.head.Text)
		return
	}
	nameTok := s.ops[0][0]
	if p.defined(nameTok.Text) {
		p.errorf(nameTok, "duplicate symbol %q", nameTok.Text)
		return
	}
	v, ok := p.evalToks(s.ops[1])
	if !ok {
		return
	}
	p.consts[nameTok.Text] = v
}

func (p *parser) alignDirective(s stmt) {
	if !p.requireOps(s, 1) {
		return
	}
	n, ok := p.evalToks(s.ops[0])
	if !ok {
		return
	}
	if n == 0 || n > 1<<20 || n&(n-1) != 0 {
		p.errorf(s.head, ".align needs a power-of-two byte count up to 2^20, got %d", n)
		return
	}
	// Pending labels stay pending: they bind at the next sized directive,
	// which re-aligns to 8 anyway.
	p.dataNext = (p.dataNext + n - 1) &^ (n - 1)
}

// alignData rounds the cursor up to n (a power of two) and returns it.
func (p *parser) alignData(n uint64) uint64 {
	p.dataNext = (p.dataNext + n - 1) &^ (n - 1)
	return p.dataNext
}

func (p *parser) bindPendingLabels(addr uint64) {
	for _, l := range p.pendingLabels {
		p.defineSymbol(l, addr)
	}
	p.pendingLabels = nil
}

func (p *parser) defineSymbol(tok lexer.Token, addr uint64) {
	if p.defined(tok.Text) {
		p.errorf(tok, "duplicate symbol %q", tok.Text)
		return
	}
	p.symbols[tok.Text] = addr
}

type itemKind uint8

const (
	itemWord itemKind = iota
	itemByte
	itemFloat
	itemAscii
	itemAsciz
)

// dataItem is one sized data directive whose bytes are filled in pass two.
type dataItem struct {
	s    stmt
	kind itemKind
	base uint64
	size uint64
}

func (p *parser) layoutData(s stmt, kind itemKind, size uint64) {
	base := p.alignData(8)
	p.bindPendingLabels(base)
	p.dataNext = base + size
	p.items = append(p.items, dataItem{s: s, kind: kind, base: base, size: size})
}

// stringSize sums the decoded lengths of a string directive's operands
// (plus pad bytes per string for .asciz), reporting non-string operands.
func (p *parser) stringSize(s stmt, pad int) uint64 {
	var n uint64
	for _, op := range s.ops {
		if len(op) != 1 || op[0].Kind != lexer.Str {
			p.errorf(op[0], "%s: expected string literal", s.head.Text)
			continue
		}
		n += uint64(len(op[0].Text) + pad)
	}
	return n
}

// fillData evaluates every deferred data initializer (all symbols are
// defined by now, so forward references into code or later data resolve)
// and materializes one Segment per directive, mirroring the old frontend's
// layout exactly.
func (p *parser) fillData() []Segment {
	segs := make([]Segment, 0, len(p.items))
	for _, it := range p.items {
		buf := make([]byte, 0, it.size)
		for _, op := range it.s.ops {
			switch it.kind {
			case itemWord:
				v, _ := p.evalToks(op)
				var w [8]byte
				binary.LittleEndian.PutUint64(w[:], v)
				buf = append(buf, w[:]...)
			case itemByte:
				v, _ := p.evalToks(op)
				buf = append(buf, byte(v))
			case itemFloat:
				f, _ := p.floatOperand(op)
				var w [8]byte
				binary.LittleEndian.PutUint64(w[:], math.Float64bits(f))
				buf = append(buf, w[:]...)
			case itemAscii, itemAsciz:
				if len(op) != 1 || op[0].Kind != lexer.Str {
					continue // reported at layout
				}
				buf = append(buf, op[0].Text...)
				if it.kind == itemAsciz {
					buf = append(buf, 0)
				}
			}
		}
		segs = append(segs, Segment{Base: it.base, Bytes: buf})
	}
	return segs
}

// floatOperand parses "[+-]? literal" where the literal is a Float or Int
// token. General expressions are integer-only; .float takes literals.
func (p *parser) floatOperand(toks []lexer.Token) (float64, bool) {
	neg := false
	if len(toks) > 0 && (toks[0].Kind == lexer.Minus || toks[0].Kind == lexer.Plus) {
		neg = toks[0].Kind == lexer.Minus
		toks = toks[1:]
	}
	if len(toks) != 1 || (toks[0].Kind != lexer.Float && toks[0].Kind != lexer.Int) {
		at := lexer.Token{Line: 1, Col: 1}
		if len(toks) > 0 {
			at = toks[0]
		}
		p.errorf(at, ".float: expected floating-point literal")
		return 0, false
	}
	var v float64
	if toks[0].Kind == lexer.Float {
		f, err := strconv.ParseFloat(toks[0].Text, 64)
		if err != nil {
			p.errorf(toks[0], "bad float literal %q", toks[0].Text)
			return 0, false
		}
		v = f
	} else {
		u, err := strconv.ParseUint(toks[0].Text, 0, 64)
		if err != nil {
			p.errorf(toks[0], "bad float literal %q", toks[0].Text)
			return 0, false
		}
		v = float64(int64(u))
	}
	if neg {
		v = -v
	}
	return v, true
}
