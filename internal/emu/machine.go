package emu

import (
	"fmt"
	"unsafe"

	"prisim/internal/asm"
	"prisim/internal/isa"
)

// StepInfo reports everything the timing model needs to know about one
// functionally executed instruction.
type StepInfo struct {
	Seq    uint64 // 1-based dynamic instruction number
	PC     uint64
	NextPC uint64
	Inst   isa.Inst

	// Uop points at the decoded-uop cache entry for the executed static
	// instruction (or the machine's scratch slot for a PC outside the text
	// segment, valid only until the next such step). Consumers that keep it
	// must copy the Uop, not the pointer. Nil on a halted no-op step.
	Uop *isa.Uop

	Taken bool // branches and jumps: control transferred

	IsMem   bool
	MemAddr uint64
	MemSize uint8

	HasResult bool
	Result    uint64 // destination value (raw bits for FP)

	Halted bool
}

// undoKind discriminates undo-log entries.
type undoKind uint8

const (
	undoReg undoKind = iota
	undoMem
)

type undoEntry struct {
	kind undoKind
	reg  isa.Reg
	size uint8
	addr uint64
	old  uint64
}

// frame records per-instruction rollback state: the PC before the step and
// where this step's undo entries begin.
type frame struct {
	pc        uint64
	undoStart int
	outLen    int
	halted    bool
}

// Machine is the architected state of a PRISC-64 processor plus the rollback
// machinery. Register indices follow the unified isa.Reg space: 0..31
// integer (index 0 pinned to zero), 32..63 floating point (raw bits).
type Machine struct {
	Mem  *Memory
	PC   uint64
	regs [isa.NumArchRegs]uint64

	halted bool
	seq    uint64 // number of instructions executed so far
	output []byte

	// Decoded-uop cache: each static instruction in the text segment is
	// decoded exactly once, on first fetch, into an immutable isa.Uop shared
	// by every later dynamic fetch (the program is read-only text, so the
	// cache is never invalidated). PCs outside the text segment — wrong-path
	// fetch running into data — decode into the scratch slot each time.
	codeBase   uint64
	uops       []isa.Uop
	uopReady   []bool
	uopScratch isa.Uop
	decodes    uint64 // cached decode fills (test instrumentation)
	cacheOff   bool   // test hook: force the uncached decode path

	// Rollback support. Recording is enabled by StartRecording; frames[i]
	// describes instruction seq = frameBase+i+1.
	recording bool
	frameBase uint64
	frames    []frame
	undos     []undoEntry
}

// New returns a machine with prog loaded, PC at the entry point, and SP
// initialized to the standard stack top.
func New(prog *asm.Program) *Machine {
	m := &Machine{Mem: NewMemory()}
	buf := make([]byte, 4*len(prog.Code))
	for i, w := range prog.Code {
		buf[4*i] = byte(w)
		buf[4*i+1] = byte(w >> 8)
		buf[4*i+2] = byte(w >> 16)
		buf[4*i+3] = byte(w >> 24)
	}
	m.Mem.Write(prog.CodeBase, buf)
	for _, seg := range prog.Data {
		m.Mem.Write(seg.Base, seg.Bytes)
	}
	m.PC = prog.Entry
	m.regs[isa.RSP] = asm.DefaultStackTop
	m.codeBase = prog.CodeBase
	m.uops = make([]isa.Uop, len(prog.Code))
	m.uopReady = make([]bool, len(prog.Code))
	return m
}

// Clone returns an independent deep copy of the machine sharing memory
// pages copy-on-write with the receiver (see Memory.Clone). The clone
// executes, records, and rolls back on its own; nothing it does is visible
// to the receiver or to sibling clones. Cloning an already-cloned (frozen)
// machine does not mutate the receiver, so concurrent Clone calls on a
// snapshot produced by Clone are safe.
//
// Every Machine field must be handled here; TestMachineCloneCompleteness
// fails when the struct gains a field Clone does not copy.
func (m *Machine) Clone() *Machine {
	return &Machine{
		Mem:        m.Mem.Clone(),
		PC:         m.PC,
		regs:       m.regs,
		halted:     m.halted,
		seq:        m.seq,
		output:     append([]byte(nil), m.output...),
		codeBase:   m.codeBase,
		uops:       append([]isa.Uop(nil), m.uops...),
		uopReady:   append([]bool(nil), m.uopReady...),
		uopScratch: m.uopScratch,
		decodes:    m.decodes,
		cacheOff:   m.cacheOff,
		recording:  m.recording,
		frameBase:  m.frameBase,
		frames:     append([]frame(nil), m.frames...),
		undos:      append([]undoEntry(nil), m.undos...),
	}
}

// FootprintBytes approximates the resident bytes reachable from this
// machine: memory pages (shared pages counted at full size), the decoded-uop
// cache, and the rollback log.
func (m *Machine) FootprintBytes() uint64 {
	return m.Mem.FootprintBytes() +
		uint64(len(m.uops))*uint64(unsafe.Sizeof(isa.Uop{})) +
		uint64(len(m.uopReady)) +
		uint64(len(m.output)) +
		uint64(len(m.frames))*uint64(unsafe.Sizeof(frame{})) +
		uint64(len(m.undos))*uint64(unsafe.Sizeof(undoEntry{}))
}

// UopAt returns the decoded uop for the instruction at pc, filling the cache
// on first touch. The pointer stays valid for the machine's lifetime when pc
// is in the text segment; for out-of-segment PCs it names the per-machine
// scratch slot, overwritten by the next such call.
//
//prisim:hotpath
func (m *Machine) UopAt(pc uint64) *isa.Uop {
	if idx := (pc - m.codeBase) >> 2; idx < uint64(len(m.uops)) && pc&3 == 0 && !m.cacheOff {
		u := &m.uops[idx]
		if !m.uopReady[idx] {
			*u = isa.DecodeUop(m.Mem.ReadU32(pc))
			m.uopReady[idx] = true
			m.decodes++
		}
		return u
	}
	m.uopScratch = isa.DecodeUop(m.Mem.ReadU32(pc))
	return &m.uopScratch
}

// StaticDecodes returns how many distinct static instructions have been
// decoded into the uop cache — with the cache active this is bounded by the
// program's text size no matter how many dynamic instructions execute.
func (m *Machine) StaticDecodes() uint64 { return m.decodes }

// SetUopCache enables or disables the decoded-uop cache (enabled by default;
// the A/B switch exists for determinism tests, which demand byte-identical
// simulation either way).
func (m *Machine) SetUopCache(enabled bool) { m.cacheOff = !enabled }

// SetPC redirects execution. The timing model uses it to steer fetch down a
// predicted (possibly wrong) path and to re-point at the correct target
// after a rollback; it needs no undo logging because every Step frame
// records its own prior PC.
func (m *Machine) SetPC(pc uint64) { m.PC = pc }

// Reg returns the current value of an architected register.
func (m *Machine) Reg(r isa.Reg) uint64 { return m.regs[r] }

// SetReg sets an architected register (test setup; not undo-logged).
func (m *Machine) SetReg(r isa.Reg, v uint64) {
	if r != isa.RZero {
		m.regs[r] = v
	}
}

// Halted reports whether the program has executed HALT.
func (m *Machine) Halted() bool { return m.halted }

// Seq returns the number of instructions executed so far.
func (m *Machine) Seq() uint64 { return m.seq }

// Output returns the bytes written via PUTC.
func (m *Machine) Output() []byte { return m.output }

// Recording reports whether the undo log is active.
func (m *Machine) Recording() bool { return m.recording }

// StartRecording enables the undo log from the current point; Rollback may
// target any boundary at or after this point.
func (m *Machine) StartRecording() {
	m.recording = true
	m.frameBase = m.seq
	m.frames = m.frames[:0]
	m.undos = m.undos[:0]
}

// StopRecording disables the undo log and discards it.
func (m *Machine) StopRecording() {
	m.recording = false
	m.frames = m.frames[:0]
	m.undos = m.undos[:0]
}

// ReleaseUpTo discards rollback state for instructions with sequence number
// <= seq; after the call, Rollback can only target boundaries after seq.
// The timing model calls this as instructions commit.
func (m *Machine) ReleaseUpTo(seq uint64) {
	if !m.recording || seq <= m.frameBase {
		return
	}
	if seq > m.seq {
		seq = m.seq
	}
	drop := int(seq - m.frameBase)
	// Amortized compaction: only shift when at least half the log is dead.
	if drop < len(m.frames)/2 && drop < 4096 {
		return
	}
	undoDrop := len(m.undos)
	if drop < len(m.frames) {
		undoDrop = m.frames[drop].undoStart
	}
	m.frames = append(m.frames[:0], m.frames[drop:]...)
	m.undos = append(m.undos[:0], m.undos[undoDrop:]...)
	for i := range m.frames {
		m.frames[i].undoStart -= undoDrop
	}
	m.frameBase = seq
}

// Rollback restores the machine to the boundary just after instruction seq
// (seq = Seq() is a no-op; seq less than the last ReleaseUpTo panics, since
// that state has been discarded).
func (m *Machine) Rollback(seq uint64) {
	if !m.recording {
		panic("emu: Rollback without recording")
	}
	if seq > m.seq {
		panic(fmt.Sprintf("emu: Rollback(%d) is in the future (seq=%d)", seq, m.seq))
	}
	if seq < m.frameBase {
		panic(fmt.Sprintf("emu: Rollback(%d) older than retained history (base=%d)", seq, m.frameBase))
	}
	for m.seq > seq {
		f := m.frames[m.seq-m.frameBase-1]
		for i := len(m.undos) - 1; i >= f.undoStart; i-- {
			u := m.undos[i]
			switch u.kind {
			case undoReg:
				m.regs[u.reg] = u.old
			case undoMem:
				switch u.size {
				case 1:
					m.Mem.WriteU8(u.addr, byte(u.old))
				case 4:
					m.Mem.WriteU32(u.addr, uint32(u.old))
				default:
					m.Mem.WriteU64(u.addr, u.old)
				}
			}
		}
		m.undos = m.undos[:f.undoStart]
		m.PC = f.pc
		m.halted = f.halted
		m.output = m.output[:f.outLen]
		m.seq--
	}
	m.frames = m.frames[:m.seq-m.frameBase]
}

func (m *Machine) writeReg(r isa.Reg, v uint64) {
	if r == isa.RZero {
		return
	}
	if m.recording {
		m.undos = append(m.undos, undoEntry{kind: undoReg, reg: r, old: m.regs[r]})
	}
	m.regs[r] = v
}

func (m *Machine) writeMem(addr uint64, size uint8, v uint64) {
	if m.recording {
		var old uint64
		switch size {
		case 1:
			old = uint64(m.Mem.ReadU8(addr))
		case 4:
			old = uint64(m.Mem.ReadU32(addr))
		default:
			old = m.Mem.ReadU64(addr)
		}
		m.undos = append(m.undos, undoEntry{kind: undoMem, size: size, addr: addr, old: old})
	}
	switch size {
	case 1:
		m.Mem.WriteU8(addr, byte(v))
	case 4:
		m.Mem.WriteU32(addr, uint32(v))
	default:
		m.Mem.WriteU64(addr, v)
	}
}

// PeekInst returns the decoded instruction at the current PC without
// executing it, through the uop cache.
func (m *Machine) PeekInst() isa.Inst {
	return m.UopAt(m.PC).Inst
}

// PeekUop returns the decoded uop at the current PC without executing it.
func (m *Machine) PeekUop() *isa.Uop { return m.UopAt(m.PC) }

// Run executes until HALT or until limit instructions have run (0 = no
// limit). It returns the number of instructions executed.
func (m *Machine) Run(limit uint64) uint64 {
	var info StepInfo
	n := uint64(0)
	for !m.halted && (limit == 0 || n < limit) {
		m.StepInto(&info)
		n++
	}
	return n
}
