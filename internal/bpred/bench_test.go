package bpred

import (
	"testing"

	"prisim/internal/emu"
	"prisim/internal/fuzzprog"
	"prisim/internal/isa"
	"prisim/internal/workloads"
)

// BenchmarkPredict measures one control instruction per op through the
// predictor the way fast-forward drives it: Predict, Recover when the
// predicted next PC is wrong, then Update. The stream is recorded from
// gcc's functional execution plus a generated program with calls and
// returns, so the direction tables, RAS and BTB all take part.
func BenchmarkPredict(b *testing.B) {
	type ctl struct {
		pc, next uint64
		in       isa.Inst
		taken    bool
	}
	var stream []ctl
	gcc, _ := workloads.ByName("gcc")
	for _, m := range []*emu.Machine{emu.New(gcc.Build(0)), emu.New(fuzzprog.Generate(fuzzprog.Config{Seed: 3}))} {
		for n := 0; n < 200_000 && !m.Halted(); n++ {
			info := m.Step()
			if info.Uop.Flags&isa.UopControl != 0 {
				stream = append(stream, ctl{info.PC, info.NextPC, info.Inst, info.Taken})
			}
		}
	}
	p := New(Default())
	b.ReportAllocs()
	b.ResetTimer()
	for i, j := 0, 0; i < b.N; i++ {
		s := &stream[j]
		if j++; j == len(stream) {
			j = 0
		}
		pred := p.Predict(s.pc, s.in)
		predNPC := s.pc + 4
		if pred.Taken {
			predNPC = pred.Target
		}
		if predNPC != s.next {
			p.Recover(s.pc, s.in, pred, s.taken)
		}
		p.Update(s.pc, s.in, pred, s.taken, s.next)
	}
}
