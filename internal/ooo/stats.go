package ooo

// Stats accumulates the timing model's counters. Register lifetime and
// occupancy detail lives in the renamer's core.LifetimeStats; cache and
// predictor detail in their packages.
type Stats struct {
	Cycles    uint64
	Committed uint64
	Fetched   uint64
	Squashed  uint64

	Replays             uint64 // scheduler latency mis-speculation replays
	LoadConflictReplays uint64 // loads replayed behind an older store
	LoadForwards        uint64 // loads satisfied by store-to-load forwarding

	BranchResolved     uint64
	BranchMispredicted uint64

	RenameStallWindow uint64 // rename cycles lost to ROB/LSQ/scheduler
	RenameStallRegs   uint64 // rename cycles lost to an empty free list

	SrcPRReads         uint64 // source operands renamed to register pointers
	SrcInlineReads     uint64 // source operands satisfied from inlined map entries
	RetireInlines      uint64 // results inlined into the map at retire
	RenameInlines      uint64 // destinations inlined at rename (extension)
	IdealFixups        uint64 // consumers converted by the ideal payload update
	EarlyFreesAtRetire uint64

	// WritebackStalls counts retire attempts deferred by the delayed-
	// allocation writeback gate (virtual-physical extension).
	WritebackStalls uint64

	IntOccupancySum uint64 // per-cycle sum of allocated integer registers
	FPOccupancySum  uint64

	// RetireLagSum accumulates, for every writeback, how many younger
	// instructions had already renamed — the distance the WAW check races
	// against (diagnostic for PRI effectiveness).
	RetireLagSum   uint64
	RetireLagCount uint64
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// AvgIntOccupancy returns the mean number of allocated integer physical
// registers per cycle (the paper's Figure 11 metric).
func (s *Stats) AvgIntOccupancy() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.IntOccupancySum) / float64(s.Cycles)
}

// AvgFPOccupancy returns the mean allocated floating-point registers.
func (s *Stats) AvgFPOccupancy() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.FPOccupancySum) / float64(s.Cycles)
}

// MispredictRate returns mispredictions per resolved control instruction.
func (s *Stats) MispredictRate() float64 {
	if s.BranchResolved == 0 {
		return 0
	}
	return float64(s.BranchMispredicted) / float64(s.BranchResolved)
}

// InlineFraction returns the fraction of renamed source operands that were
// read directly from the map as immediates.
func (s *Stats) InlineFraction() float64 {
	total := s.SrcPRReads + s.SrcInlineReads
	if total == 0 {
		return 0
	}
	return float64(s.SrcInlineReads) / float64(total)
}
