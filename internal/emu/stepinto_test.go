package emu

import (
	"testing"

	"prisim/internal/asm"
	"prisim/internal/fuzzprog"
	"prisim/internal/isa"
	"prisim/internal/workloads"
)

// TestStepIntoReusedInfo steps one machine into a single StepInfo that
// starts out full of garbage and is never cleared, and a twin through fresh
// Step calls: every report must match. An in-place fill that leaves a field
// over from an earlier instruction — IsMem after a load, Taken after a
// branch, Result after a write — fails here.
func TestStepIntoReusedInfo(t *testing.T) {
	swim, _ := workloads.ByName("swim")
	for _, tc := range []struct {
		name string
		prog *asm.Program
	}{
		{"fuzzprog", fuzzprog.Generate(fuzzprog.Config{Seed: 7})},
		{"swim", swim.Build(1)}, // loads, stores, branches and FP, then HALT
	} {
		t.Run(tc.name, func(t *testing.T) {
			reused, fresh := New(tc.prog), New(tc.prog)
			garbage := isa.DecodeUop(0xFFFF_FFFF)
			info := StepInfo{
				Seq: ^uint64(0), PC: ^uint64(0), NextPC: ^uint64(0),
				Inst: isa.Inst{Op: isa.OpSTQ, Rd: 7, Ra: 8, Rb: 9, Imm: -1}, Uop: &garbage,
				Taken: true, IsMem: true, MemAddr: ^uint64(0), MemSize: 0xFF,
				HasResult: true, Result: ^uint64(0), Halted: true,
			}
			var mems, taken, results, steps int
			for halts := 0; halts < 2; steps++ {
				reused.StepInto(&info)
				want := fresh.Step()
				if (info.Uop == nil) != (want.Uop == nil) || info.Uop != nil && *info.Uop != *want.Uop {
					t.Fatalf("step %d: uop %v, fresh Step %v", steps, info.Uop, want.Uop)
				}
				got := info
				got.Uop, want.Uop = nil, nil // each machine has its own uop cache
				if got != want {
					t.Fatalf("step %d diverged:\nreused: %+v\nfresh:  %+v", steps, got, want)
				}
				if got.IsMem {
					mems++
				}
				if got.Taken {
					taken++
				}
				if got.HasResult {
					results++
				}
				if got.Halted {
					halts++ // the second halted step is the no-op one
				}
			}
			if mems == 0 || taken == 0 || results == 0 || steps < 100 {
				t.Fatalf("stream too narrow: %d steps, %d memory, %d taken, %d results", steps, mems, taken, results)
			}
		})
	}
}

// BenchmarkStep measures the functional emulator alone: one instruction per
// op, stepped into one reused StepInfo, over an integer and an FP workload.
// A machine that halts is replaced off the clock.
func BenchmarkStep(b *testing.B) {
	for _, name := range []string{"gzip", "swim"} {
		b.Run(name, func(b *testing.B) {
			w, ok := workloads.ByName(name)
			if !ok {
				b.Fatalf("unknown workload %q", name)
			}
			prog := w.Build(0)
			m := New(prog)
			var info StepInfo
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if m.Halted() {
					b.StopTimer()
					m = New(prog)
					b.StartTimer()
				}
				m.StepInto(&info)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "instr/s")
		})
	}
}
