// Package asm builds PRISC-64 program images. It provides two front ends
// over the same program representation: a Go builder API (Builder), which
// the synthetic workload kernels use to generate code, and a small text
// assembler (Assemble) with labels and data directives, used by cmd/prias
// and the examples.
package asm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"

	"prisim/internal/asm/parser"
	"prisim/internal/isa"
)

// Default memory layout for assembled programs: the parser's, for both
// front ends.
const (
	// DefaultCodeBase is where the code segment is loaded.
	DefaultCodeBase = parser.CodeBase
	// DefaultDataBase is where data is laid out.
	DefaultDataBase = parser.DataBase
	// DefaultStackTop is the initial stack pointer handed to programs.
	DefaultStackTop = 0x7FFF_FF00
)

// Segment is a contiguous run of initialized memory in a program image.
type Segment = parser.Segment

// SrcPos is a 1-based source position for one code word; the zero value
// means "position unknown" (builder-generated programs carry no positions).
type SrcPos = parser.Pos

// Program is a fully linked PRISC-64 program image.
//
// Lines and DataEnd are analysis metadata: like Symbols they do not affect
// execution and are excluded from the SHA256 identity.
type Program struct {
	Entry    uint64
	CodeBase uint64
	Code     []uint32 // encoded instructions, CodeBase-relative
	Data     []Segment
	Symbols  map[string]uint64
	// Lines, when non-nil, maps each code word to the source position of
	// the assembly statement that emitted it (len(Lines) == len(Code)).
	Lines []SrcPos
	// DataEnd is the first address past the laid-out data section,
	// including .space reservations, which materialize no Segment.
	// Zero when unknown (e.g. images decoded from old JSON dumps).
	DataEnd uint64
}

// CodeEnd returns the first address past the code segment.
func (p *Program) CodeEnd() uint64 { return p.CodeBase + 4*uint64(len(p.Code)) }

// DataLimit returns the first address past the valid data region: DataEnd
// when recorded, otherwise the highest initialized segment end.
func (p *Program) DataLimit() uint64 {
	limit := p.DataEnd
	for _, seg := range p.Data {
		if end := seg.Base + uint64(len(seg.Bytes)); end > limit {
			limit = end
		}
	}
	return limit
}

// SHA256 returns the hex digest of the canonical image serialization:
// schema tag, entry, code base, code words, and each data segment's base,
// length, and bytes, all little-endian. Symbols are excluded — they do not
// affect execution, so two images that run identically hash identically.
// The digest is the content-addressed identity used by program-job cache
// keys; changing the serialization is a cache-key schema change.
func (p *Program) SHA256() string {
	h := sha256.New()
	h.Write([]byte("prisim-image-v1\n"))
	var w [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
	word(p.Entry)
	word(p.CodeBase)
	word(uint64(len(p.Code)))
	var iw [4]byte
	for _, c := range p.Code {
		binary.LittleEndian.PutUint32(iw[:], c)
		h.Write(iw[:])
	}
	word(uint64(len(p.Data)))
	for _, seg := range p.Data {
		word(seg.Base)
		word(uint64(len(seg.Bytes)))
		h.Write(seg.Bytes)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Disassemble renders the whole code segment, one instruction per line,
// annotated with addresses and any symbols that point at them.
func (p *Program) Disassemble() string {
	bySym := make(map[uint64][]string)
	for name, addr := range p.Symbols {
		bySym[addr] = append(bySym[addr], name)
	}
	for _, names := range bySym {
		sort.Strings(names)
	}
	out := make([]byte, 0, 32*len(p.Code))
	for i, w := range p.Code {
		addr := p.CodeBase + 4*uint64(i)
		for _, name := range bySym[addr] {
			out = append(out, fmt.Sprintf("%s:\n", name)...)
		}
		out = append(out, fmt.Sprintf("  %08x:  %s\n", addr, isa.Decode(w))...)
	}
	return string(out)
}
