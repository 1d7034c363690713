package bench

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"slices"
	"strings"
)

// rngFor returns a generator for one named input stream. Every input the
// benchmark generates comes from rngFor(seed, ...), so a seed fixes the
// inputs and distinct streams never share draws.
func rngFor(seed int64, stream string, idx ...int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s", stream)
	for _, i := range idx {
		fmt.Fprintf(h, "/%d", i)
	}
	return rand.New(rand.NewPCG(uint64(seed), h.Sum64()))
}

// sample returns k distinct indices of [0, n) chosen by r, in ascending
// order (all of them when k >= n).
func sample(r *rand.Rand, n, k int) []int {
	perm := r.Perm(n)
	if k < n {
		perm = perm[:k]
	}
	slices.Sort(perm)
	return perm
}

// ProgramRunBudget is the instruction budget a generated program runs
// under; every generated program halts well within it.
const ProgramRunBudget = 20_000

// maxProgramInstrs bounds a generated program's dynamic instruction count,
// leaving headroom under ProgramRunBudget for the prologue and epilogue.
const maxProgramInstrs = 17_000

// arenaBytes is the size of a generated program's .space arena.
const arenaBytes = 4096

// GenProgram returns a seeded PRISC-64 assembly program of a few thousand
// lines: straight-line arithmetic over narrow and wide constants, loads and
// stores into a .space arena, short data-dependent branches, and counted
// loops. Programs for distinct (seed, id) differ, assemble without errors,
// pass priscan with no error findings, halt within ProgramRunBudget
// instructions, and print a 16-letter checksum.
func GenProgram(seed int64, id int) string {
	r := rngFor(seed, "program", id)
	g := &progGen{r: r, lines: 1500 + r.IntN(1000)}
	var b strings.Builder
	g.b = &b
	fmt.Fprintf(&b, "; generated program seed=%d id=%d\n.data\narena: .space %d\n.text\nmain:\n", seed, id, arenaBytes)
	g.emit("la r16, arena")
	g.emit("li r17, 0")
	for reg := 1; reg <= 14; reg++ {
		g.emit(fmt.Sprintf("li r%d, %d", reg, r.IntN(128)-64))
	}
	// A per-program constant keeps every image distinct.
	g.emit(fmt.Sprintf("li r15, %d", int64(r.Uint64()>>20)|int64(id)<<44))
	g.emit("add r17, r17, r15")
	for g.n < g.lines {
		switch k := r.IntN(10); {
		case k < 4:
			g.arith(2 + r.IntN(6))
		case k < 5:
			g.constant()
		case k < 7:
			g.memory()
		case k < 8:
			g.branch()
		default:
			g.loop()
		}
	}
	b.WriteString("  li r5, 16\nprint:\n  andi r6, r17, 15\n  addi r6, r6, 65\n  putc r6\n  srli r17, r17, 4\n  addi r5, r5, -1\n  bnez r5, print\n  halt\n")
	return b.String()
}

// progGen tracks a program under construction: n counts source lines and
// dyn bounds the instructions they execute.
type progGen struct {
	r      *rand.Rand
	b      *strings.Builder
	lines  int
	n, dyn int
	label  int
}

func (g *progGen) emit(s string) {
	g.b.WriteString("  ")
	g.b.WriteString(s)
	g.b.WriteByte('\n')
	g.n++
	g.dyn++
}

func (g *progGen) newLabel() string {
	g.label++
	return fmt.Sprintf("L%d", g.label)
}

func (g *progGen) reg() string { return fmt.Sprintf("r%d", 1+g.r.IntN(15)) }

var rrOps = []string{"add", "sub", "xor", "and", "or", "mul", "sll", "srl", "slt"}
var riOps = []string{"addi", "andi", "ori", "xori", "slli", "srli"}

// arith emits n register-register or register-immediate operations.
func (g *progGen) arith(n int) {
	for range n {
		if g.r.IntN(2) == 0 {
			g.emit(fmt.Sprintf("%s %s, %s, %s", rrOps[g.r.IntN(len(rrOps))], g.reg(), g.reg(), g.reg()))
			continue
		}
		op := riOps[g.r.IntN(len(riOps))]
		imm := g.r.IntN(4096) - 2048
		switch op {
		case "andi", "ori", "xori":
			imm = g.r.IntN(4096)
		case "slli", "srli":
			imm = g.r.IntN(64)
		}
		g.emit(fmt.Sprintf("%s %s, %s, %d", op, g.reg(), g.reg(), imm))
	}
	g.emit("add r17, r17, " + g.reg())
}

// constant loads a narrow (inlinable) or wide constant.
func (g *progGen) constant() {
	if g.r.IntN(2) == 0 {
		g.emit(fmt.Sprintf("li %s, %d", g.reg(), g.r.IntN(128)-64))
		return
	}
	g.emit(fmt.Sprintf("li %s, %d", g.reg(), int64(g.r.Uint64()>>16)))
	g.dyn += 3 // a wide li expands to up to four instructions
}

// memory stores to and loads from an arena slot addressed by a masked,
// 8-byte-aligned register offset, so every access is provably in bounds.
func (g *progGen) memory() {
	g.emit(fmt.Sprintf("andi r18, %s, %d", g.reg(), arenaBytes-8))
	g.emit("add r18, r16, r18")
	if g.r.IntN(3) == 0 {
		g.emit(fmt.Sprintf("stb %s, %d(r18)", g.reg(), g.r.IntN(8)))
		g.emit(fmt.Sprintf("ldbu %s, %d(r18)", g.reg(), g.r.IntN(8)))
	} else {
		g.emit(fmt.Sprintf("stq %s, 0(r18)", g.reg()))
		g.emit(fmt.Sprintf("ldq %s, 0(r18)", g.reg()))
	}
}

// branch emits a short data-dependent forward branch.
func (g *progGen) branch() {
	skip := g.newLabel()
	g.emit(fmt.Sprintf("andi r19, %s, 3", g.reg()))
	g.emit("bnez r19, " + skip)
	g.emit("addi r17, r17, 1")
	fmt.Fprintf(g.b, "%s:\n", skip)
	g.n++
}

// loop emits a counted loop when the dynamic budget allows, and plain
// arithmetic otherwise.
func (g *progGen) loop() {
	body := 4 + g.r.IntN(9)
	trips := 3 + g.r.IntN(10)
	cost := trips*(body+3) + 1 // body plus its fold, decrement, and branch
	if g.dyn+cost > maxProgramInstrs {
		g.arith(body)
		return
	}
	top := g.newLabel()
	g.emit(fmt.Sprintf("li r20, %d", trips))
	fmt.Fprintf(g.b, "%s:\n", top)
	g.n++
	g.arith(body)
	g.emit("addi r20, r20, -1")
	g.emit("bnez r20, " + top)
	g.dyn += cost - (body + 4) // emit counted one pass of li, body, fold, decrement, branch
}

// warmupFFStrata splits the warmup fast-forward range into equal bands;
// each run of that many passes draws once from every band, in a seeded
// order, so every seed sees the same spread of warm-up lengths.
const warmupFFStrata = 16

// warmupFF is the fast-forward length of one warmup-sampled pass, in
// [200k, 400k).
func warmupFF(seed int64, pass int) uint64 {
	const lo, band = 200_000, 200_000 / warmupFFStrata
	s := rngFor(seed, "warmup-ff", pass/warmupFFStrata).Perm(warmupFFStrata)[pass%warmupFFStrata]
	return lo + uint64(s*band) + uint64(rngFor(seed, "warmup-ff-jitter", pass).IntN(band))
}
