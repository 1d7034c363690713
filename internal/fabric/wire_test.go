package fabric

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"prisim"
	"prisim/prisimclient"
)

// The durable store, every job and matrix response, and every client that
// compares results byte for byte depend on how a Result and a Table encode.
// The strings below were recorded from fully populated values; no change to
// the types behind them may move a byte.

const wireResultJSON = `{"Benchmark":"mcf","Machine":"8wide","IntPRs":48,"FPPRs":64,"IPC":1.375,"Cycles":123456,"Committed":169752,"IntOccupancy":47.25,"FPOccupancy":33.5,"AllocToWrite":3.125,"WriteToRead":7.75,"ReadToRelease":21.5,"InlineFraction":0.4375,"MispredictRate":0.0625,"BranchResolved":20481,"DL1MissRate":0.1,"L2MissRate":0.3,"Replays":512,"InlinedResults":9001,"WAWSuppressed":77,"DeferredFrees":13,"EarlyFrees":2048}`

const wireResultPlusV = `{Benchmark:mcf Machine:8wide IntPRs:48 FPPRs:64 IPC:1.375 Cycles:123456 Committed:169752 IntOccupancy:47.25 FPOccupancy:33.5 AllocToWrite:3.125 WriteToRead:7.75 ReadToRelease:21.5 InlineFraction:0.4375 MispredictRate:0.0625 BranchResolved:20481 DL1MissRate:0.1 L2MissRate:0.3 Replays:512 InlinedResults:9001 WAWSuppressed:77 DeferredFrees:13 EarlyFrees:2048}`

const wireTableJSON = `{"Title":"Figure 8: avg register lifetime (cycles)","Columns":["bench","base(4w)","pri(4w)"],"Rows":[["gzip","31.5","22.0"],["vpr_ref","118.25","64.5"]]}`

const wireTableString = "== Figure 8: avg register lifetime (cycles) ==\n" +
	"bench    base(4w)  pri(4w)\n" +
	"-------  --------  -------\n" +
	"gzip     31.5      22.0   \n" +
	"vpr_ref  118.25    64.5   \n"

const wireJobResultJSON = `{"id":"job-42","result":` + wireResultJSON + `,"tables":[` + wireTableJSON + `],"output":"SGkK","kernel_version":"v9.9.9-test","cache_key":"abc123","computed_by":"w1"}`

const wireProgramInfoJSON = `{"sha256":"abc123","entry":65536,"code_words":21,"data_segments":2,"data_bytes":24,"warnings":[{"file":"program.s","line":3,"col":3,"msg":"value written to r5 is never read","excerpt":"\tli r5, 7","analyzer":"defuse","severity":"warning","addr":65544}],"inlinability":{"narrow_bits":7,"defs":12,"narrow":9,"wide":2,"unknown":1,"fp_defs":3,"static_frac":0.75,"weighted_frac":0.875}}`

const wireEntryJSON = `{"key":"abc123","kernel":"v9.9.9-test","computed_by":"w1","created":"2026-08-01T12:00:00Z","request":{"kind":"program","benchmark":"mcf","width":8,"policy":"pri-rc-ckpt","phys_regs":48,"rename_inline":true,"delayed_allocation":true,"experiment":"fig8","source":"bWFpbjogaGFsdAo=","fast_forward":300,"run":1500,"cache_key":"abc123"},"result":` + wireResultJSON + `,"output":"SGkK"}`

func wireValues() (prisim.Result, prisim.Table) {
	res := prisim.Result{
		Benchmark: "mcf", Machine: "8wide", IntPRs: 48, FPPRs: 64,
		IPC: 1.375, Cycles: 123456, Committed: 169752,
		IntOccupancy: 47.25, FPOccupancy: 33.5,
		AllocToWrite: 3.125, WriteToRead: 7.75, ReadToRelease: 21.5,
		InlineFraction: 0.4375, MispredictRate: 0.0625, BranchResolved: 20481,
		DL1MissRate: 0.1, L2MissRate: 0.3, Replays: 512,
		InlinedResults: 9001, WAWSuppressed: 77, DeferredFrees: 13, EarlyFrees: 2048,
	}
	tbl := prisim.Table{
		Title:   "Figure 8: avg register lifetime (cycles)",
		Columns: []string{"bench", "base(4w)", "pri(4w)"},
		Rows:    [][]string{{"gzip", "31.5", "22.0"}, {"vpr_ref", "118.25", "64.5"}},
	}
	return res, tbl
}

// TestWireBytesPinned encodes a fully populated Result, Table, JobResult,
// ProgramInfo and store Entry and compares every byte with the recorded
// strings.
func TestWireBytesPinned(t *testing.T) {
	res, tbl := wireValues()
	jr := prisimclient.JobResult{
		ID: "job-42", Result: &res, Tables: []prisim.Table{tbl}, Output: []byte("Hi\n"),
		KernelVersion: "v9.9.9-test", CacheKey: "abc123", ComputedBy: "w1",
	}
	entry := Entry{
		Key: "abc123", Kernel: "v9.9.9-test", ComputedBy: "w1",
		Created: time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC),
		Request: prisimclient.JobRequest{
			Kind: prisimclient.KindProgram, Benchmark: "mcf", Width: 8, Policy: "pri-rc-ckpt",
			PhysRegs: 48, RenameInline: true, DelayedAllocation: true, Experiment: "fig8",
			Source: []byte("main: halt\n"), FastForward: 300, Run: 1500, CacheKey: "abc123",
		},
		Result: res,
		Output: []byte("Hi\n"),
	}
	info := prisimclient.ProgramInfo{
		SHA256: "abc123", Entry: 0x10000, CodeWords: 21, DataSegments: 2, DataBytes: 24,
		Warnings: []prisimclient.Diagnostic{{
			File: "program.s", Line: 3, Col: 3, Msg: "value written to r5 is never read",
			Excerpt: "\tli r5, 7", Analyzer: "defuse", Severity: "warning", Addr: 0x10008,
		}},
		Inlinability: &prisimclient.Inlinability{
			NarrowBits: 7, Defs: 12, Narrow: 9, Wide: 2, Unknown: 1, FPDefs: 3,
			StaticFrac: 0.75, WeightedFrac: 0.875,
		},
	}
	encode := func(v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for _, c := range []struct{ name, got, want string }{
		{"Result JSON", encode(res), wireResultJSON},
		{"Result %+v", fmt.Sprintf("%+v", res), wireResultPlusV},
		{"Table JSON", encode(tbl), wireTableJSON},
		{"Table.String", tbl.String(), wireTableString},
		{"JobResult JSON", encode(jr), wireJobResultJSON},
		{"ProgramInfo JSON", encode(info), wireProgramInfoJSON},
		{"Entry JSON", encode(entry), wireEntryJSON},
	} {
		if c.got != c.want {
			t.Errorf("%s changed:\ngot  %s\nwant %s", c.name, c.got, c.want)
		}
	}
}
