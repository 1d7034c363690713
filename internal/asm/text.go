package asm

import (
	"errors"

	"prisim/internal/asm/parser"
)

// Diagnostic is one positioned assembly error or priscan finding: file,
// 1-based rune-accurate line/column, message, and a source excerpt. It is
// an alias for the parser's type so callers can consume diagnostics without
// importing the frontend packages.
type Diagnostic = parser.Diagnostic

// Diagnostics extracts the collected diagnostics from an error returned by
// Assemble, or nil if err did not come from the assembler frontend. The
// frontend collects every error it finds (capped), not just the first.
func Diagnostics(err error) []Diagnostic {
	var pe *parser.Error
	if errors.As(err, &pe) {
		return pe.Diags
	}
	return nil
}

// Assemble translates PRISC-64 assembly text into a program image.
//
// The syntax is conventional two-section assembly:
//
//	.equ    N, 8
//	.data
//	tbl:    .word 1, 2, 3*N+1
//	vec:    .float 1.0, -2.5
//	msg:    .asciz "hi;#()\n"
//	buf:    .space N*8
//	.text
//	main:   la   r1, tbl
//	        ldq  r2, (N)(r1)
//	loop:   addi r2, r2, -1
//	        bnez r2, loop
//	        halt
//
// Comments run from ';' or '#' to end of line (except inside string
// literals). Integer operands are constant expressions over literals,
// .equ/.set constants, and symbols, with C-like precedence. Directives:
// .data/.text (interleaving allowed; code may reference data declared in a
// later .data block), .word/.byte/.float/.ascii/.asciz/.space/.align,
// .equ/.set, and .macro/.endm with parameters (\name) and the \@
// unique-label counter. Pseudo-instructions: li, la, mov, beqz, bnez, ret,
// plus the bare form of jalr (link register implied).
//
// On failure the error carries every diagnostic found, each positioned
// file:line:col with a source excerpt; see Diagnostics.
func Assemble(src string) (*Program, error) {
	return AssembleFile("<input>", src)
}

// AssembleFile is Assemble with a file name for diagnostics.
func AssembleFile(name, src string) (*Program, error) {
	img, err := parser.Parse(name, src)
	if err != nil {
		return nil, err
	}
	return &Program{
		Entry:    img.Entry,
		CodeBase: DefaultCodeBase,
		Code:     img.Code,
		Data:     img.Data,
		Symbols:  img.Symbols,
		Lines:    img.Lines,
		DataEnd:  img.DataEnd,
	}, nil
}
