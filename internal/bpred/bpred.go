// Package bpred implements the branch prediction hardware from the paper's
// Table 1: a combined predictor (4k-entry bimodal and 4k-entry gshare with a
// 4k-entry selector), a 16-entry return address stack, and a 1k-entry 4-way
// branch target buffer.
//
// Prediction state is deterministic: it is a pure function of the update
// stream, with no wall-clock, global randomness, or map-order dependence.
//
//prisim:deterministic
package bpred

import (
	"math/bits"

	"prisim/internal/isa"
)

// Config sizes the predictor structures. The zero value is not useful; use
// Default for the paper's configuration.
type Config struct {
	BimodalEntries  int // direction predictor, PC-indexed
	GshareEntries   int // direction predictor, history-XOR-PC indexed
	SelectorEntries int // chooser between bimodal and gshare
	HistoryBits     int // global history length for gshare
	RASEntries      int
	BTBSets         int
	BTBWays         int
}

// Default is the paper's Table 1 predictor configuration.
func Default() Config {
	return Config{
		BimodalEntries:  4096,
		GshareEntries:   4096,
		SelectorEntries: 4096,
		HistoryBits:     12,
		RASEntries:      16,
		BTBSets:         256, // 1k entries, 4-way
		BTBWays:         4,
	}
}

// Prediction is the front end's view of one control instruction.
type Prediction struct {
	Taken   bool
	Target  uint64 // valid when Taken
	UsedRAS bool
	// Internal state snapshotted for checkpoint/recovery and update.
	history uint64
	rasTop  int
	rasTOS  uint64
}

type btbEntry struct {
	valid  bool
	tag    uint64
	target uint64
	lru    uint64
}

// Predictor is the complete front-end prediction unit. It is not safe for
// concurrent use; the pipeline owns one.
type Predictor struct {
	cfg      Config
	bimodal  []uint8 // 2-bit counters
	gshare   []uint8
	selector []uint8 // 2-bit: >=2 selects gshare
	history  uint64
	ras      []uint64
	rasTop   int // index of next push slot
	btb      []btbEntry
	lruClock uint64

	// Statistics.
	Lookups    uint64
	DirMiss    uint64
	TargetMiss uint64
	RASPops    uint64
	RASMiss    uint64
	BTBHits    uint64
	BTBMisses  uint64
}

// New builds a predictor. All table sizes must be powers of two.
func New(cfg Config) *Predictor {
	for _, n := range []int{cfg.BimodalEntries, cfg.GshareEntries, cfg.SelectorEntries, cfg.BTBSets} {
		if n <= 0 || n&(n-1) != 0 {
			panic("bpred: table sizes must be powers of two")
		}
	}
	p := &Predictor{
		cfg:      cfg,
		bimodal:  make([]uint8, cfg.BimodalEntries),
		gshare:   make([]uint8, cfg.GshareEntries),
		selector: make([]uint8, cfg.SelectorEntries),
		ras:      make([]uint64, cfg.RASEntries),
		btb:      make([]btbEntry, cfg.BTBSets*cfg.BTBWays),
	}
	// Weakly taken initial counters converge faster on loop code.
	for i := range p.bimodal {
		p.bimodal[i] = 2
	}
	for i := range p.gshare {
		p.gshare[i] = 2
	}
	for i := range p.selector {
		p.selector[i] = 1 // weakly prefer bimodal
	}
	return p
}

// Clone returns an independent deep copy of the predictor: warm tables,
// history, RAS, BTB, and statistics. The clone and the receiver train
// separately from the copy point on. Clone never mutates the receiver, so
// concurrent clones of one warm predictor are safe provided nothing is
// predicting on it.
//
// Every Predictor field must be handled here; TestPredictorCloneCompleteness
// fails when the struct gains a field Clone does not copy.
func (p *Predictor) Clone() *Predictor {
	c := *p
	c.bimodal = append([]uint8(nil), p.bimodal...)
	c.gshare = append([]uint8(nil), p.gshare...)
	c.selector = append([]uint8(nil), p.selector...)
	c.ras = append([]uint64(nil), p.ras...)
	c.btb = append([]btbEntry(nil), p.btb...)
	return &c
}

// FootprintBytes approximates the resident bytes of the predictor's tables.
func (p *Predictor) FootprintBytes() uint64 {
	return uint64(len(p.bimodal)) + uint64(len(p.gshare)) + uint64(len(p.selector)) +
		uint64(len(p.ras))*8 + uint64(len(p.btb))*32
}

func (p *Predictor) bimodalIdx(pc uint64) int {
	return int((pc >> 2) & uint64(p.cfg.BimodalEntries-1))
}

func (p *Predictor) gshareIdx(pc uint64) int {
	return int(((pc >> 2) ^ p.history) & uint64(p.cfg.GshareEntries-1))
}

func (p *Predictor) selectorIdx(pc uint64) int {
	return int((pc >> 2) & uint64(p.cfg.SelectorEntries-1))
}

// Predict produces a prediction for the control instruction in at pc and
// speculatively updates front-end state (global history, RAS) exactly as the
// hardware would at fetch. The returned Prediction must be handed back to
// either Update (on resolution) or Recover (on squash).
func (p *Predictor) Predict(pc uint64, in isa.Inst) Prediction {
	p.Lookups++
	pred := Prediction{history: p.history, rasTop: p.rasTop}
	if p.cfg.RASEntries > 0 {
		pred.rasTOS = p.ras[p.below(p.rasTop)]
	}

	switch {
	case in.Op.IsBranch():
		dir := p.direction(pc)
		pred.Taken = dir
		if dir {
			pred.Target = in.BranchTarget(pc)
		}
		// Speculative history update (repaired on misprediction).
		p.history = (p.history << 1) & (1<<uint(p.cfg.HistoryBits) - 1)
		if dir {
			p.history |= 1
		}
	case in.IsReturn():
		pred.Taken = true
		pred.UsedRAS = true
		pred.Target = p.pop()
		p.RASPops++
	case in.Op.IsIndirect():
		pred.Taken = true
		pred.Target = p.btbLookup(pc)
	default: // direct jump or call
		pred.Taken = true
		pred.Target = in.BranchTarget(pc)
	}
	if in.Op.IsCall() {
		p.push(pc + 4)
	}
	return pred
}

// direction consults the combined predictor without updating counters.
func (p *Predictor) direction(pc uint64) bool {
	if p.selector[p.selectorIdx(pc)] >= 2 {
		return p.gshare[p.gshareIdx(pc)] >= 2
	}
	return p.bimodal[p.bimodalIdx(pc)] >= 2
}

// Update trains the predictor with the resolved outcome of a control
// instruction previously predicted with pred. For mispredicted branches the
// caller must also call Recover first (restoring history/RAS), then Update.
func (p *Predictor) Update(pc uint64, in isa.Inst, pred Prediction, taken bool, target uint64) {
	if in.Op.IsBranch() {
		// Counters are indexed with the history in effect at prediction.
		savedHist := p.history
		p.history = pred.history
		gIdx, bIdx, sIdx := p.gshareIdx(pc), p.bimodalIdx(pc), p.selectorIdx(pc)
		p.history = savedHist

		gCorrect := (p.gshare[gIdx] >= 2) == taken
		bCorrect := (p.bimodal[bIdx] >= 2) == taken
		p.gshare[gIdx] = bump(p.gshare[gIdx], taken)
		p.bimodal[bIdx] = bump(p.bimodal[bIdx], taken)
		if gCorrect != bCorrect {
			p.selector[sIdx] = bump(p.selector[sIdx], gCorrect)
		}
		if pred.Taken != taken {
			p.DirMiss++
		} else if taken && pred.Target != target {
			p.TargetMiss++
		}
	} else if taken && pred.Target != target {
		p.TargetMiss++
		if pred.UsedRAS {
			p.RASMiss++
		}
	}
	if in.Op.IsIndirect() {
		p.btbInsert(pc, target)
	}
}

// Recover rewinds speculative front-end state (global history and RAS
// position) to the point just *after* the control instruction at pc, with
// its now-known outcome applied. The pipeline calls this when squashing the
// wrong path fetched beyond a mispredicted control instruction.
func (p *Predictor) Recover(pc uint64, in isa.Inst, pred Prediction, taken bool) {
	p.history = pred.history
	if in.Op.IsBranch() {
		p.history = (p.history << 1) & (1<<uint(p.cfg.HistoryBits) - 1)
		if taken {
			p.history |= 1
		}
	}
	// Restore the RAS pointer and the top entry the wrong path may have
	// clobbered, then replay this instruction's own pop/push.
	p.rasTop = pred.rasTop
	if p.cfg.RASEntries > 0 {
		p.ras[p.below(p.rasTop)] = pred.rasTOS
	}
	if in.IsReturn() {
		p.pop()
	}
	if in.Op.IsCall() {
		p.push(pc + 4)
	}
}

func (p *Predictor) push(addr uint64) {
	if p.cfg.RASEntries == 0 {
		return
	}
	p.ras[p.rasTop] = addr
	if p.rasTop++; p.rasTop == len(p.ras) {
		p.rasTop = 0
	}
}

func (p *Predictor) pop() uint64 {
	if p.cfg.RASEntries == 0 {
		return 0
	}
	p.rasTop = p.below(p.rasTop)
	return p.ras[p.rasTop]
}

// below returns the RAS slot under slot i, wrapping around the stack.
func (p *Predictor) below(i int) int {
	if i == 0 {
		return len(p.ras) - 1
	}
	return i - 1
}

// btbSet returns the first entry of pc's BTB set and pc's tag in it.
func (p *Predictor) btbSet(pc uint64) (base int, tag uint64) {
	set := int((pc >> 2) & uint64(p.cfg.BTBSets-1))
	return set * p.cfg.BTBWays, pc >> 2 >> bits.TrailingZeros(uint(p.cfg.BTBSets))
}

func (p *Predictor) btbLookup(pc uint64) uint64 {
	base, tag := p.btbSet(pc)
	for w := 0; w < p.cfg.BTBWays; w++ {
		e := &p.btb[base+w]
		if e.valid && e.tag == tag {
			p.lruClock++
			e.lru = p.lruClock
			p.BTBHits++
			return e.target
		}
	}
	p.BTBMisses++
	return pc + 4 // no target known: fall through (will mispredict)
}

func (p *Predictor) btbInsert(pc, target uint64) {
	base, tag := p.btbSet(pc)
	victim := base
	for w := 0; w < p.cfg.BTBWays; w++ {
		e := &p.btb[base+w]
		if e.valid && e.tag == tag {
			e.target = target
			p.lruClock++
			e.lru = p.lruClock
			return
		}
		if !e.valid || e.lru < p.btb[victim].lru {
			victim = base + w
		}
	}
	p.lruClock++
	p.btb[victim] = btbEntry{valid: true, tag: tag, target: target, lru: p.lruClock}
}

func bump(c uint8, up bool) uint8 {
	if up {
		if c < 3 {
			return c + 1
		}
		return 3
	}
	if c > 0 {
		return c - 1
	}
	return 0
}
