package bench

import (
	"testing"

	"prisim/internal/asm"
	"prisim/internal/asm/analysis"
	"prisim/internal/emu"
)

func TestGenProgramIsSeeded(t *testing.T) {
	if GenProgram(7, 3) != GenProgram(7, 3) {
		t.Fatal("same seed and id gave different programs")
	}
	if GenProgram(7, 3) == GenProgram(7, 4) || GenProgram(7, 3) == GenProgram(8, 3) {
		t.Fatal("distinct seeds or ids gave the same program")
	}
	if warmupFF(7, 2) != warmupFF(7, 2) || warmupFF(7, 2) == warmupFF(7, 3) {
		t.Fatal("warmup fast-forward draws are not seeded per pass")
	}
}

// TestGenProgramsAreCleanAndHalt checks the generator's promises on many
// seeds: every program assembles, priscan finds no errors, and it halts
// within the run budget after printing its checksum.
func TestGenProgramsAreCleanAndHalt(t *testing.T) {
	seen := make(map[string]bool)
	for seed := int64(1); seed <= 3; seed++ {
		for id := 0; id < 15; id++ {
			src := GenProgram(seed, id)
			prog, err := asm.AssembleFile("gen.s", src)
			if err != nil {
				t.Fatalf("seed %d id %d: %v", seed, id, err)
			}
			if seen[prog.SHA256()] {
				t.Fatalf("seed %d id %d: duplicate image", seed, id)
			}
			seen[prog.SHA256()] = true
			rep := analysis.Analyze(prog, analysis.Options{})
			for _, f := range rep.Findings {
				if f.Severity == analysis.SevError {
					t.Fatalf("seed %d id %d: priscan error: %s", seed, id, f.Msg)
				}
			}
			m := emu.New(prog)
			n := m.Run(ProgramRunBudget)
			if !m.Halted() {
				t.Fatalf("seed %d id %d: did not halt within %d instructions", seed, id, ProgramRunBudget)
			}
			if len(m.Output()) != 16 {
				t.Fatalf("seed %d id %d: printed %q after %d instructions", seed, id, m.Output(), n)
			}
		}
	}
}
