package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"prisim/internal/core"
	"prisim/internal/memsys"
	"prisim/internal/ooo"
	"prisim/internal/workloads"
)

// Golden determinism fingerprints, captured from the pre-event-wheel kernel
// (PR 2 head). The event wheel, dynInst recycling, the intrusive ready queue,
// and the page-translation cache are pure mechanical optimizations: every
// experiment table and every statistic must stay bit-identical. If a kernel
// change legitimately alters timing semantics, recapture with
//
//	go test ./internal/harness -run TestGolden -v
//
// and say so in the commit message.
const (
	goldenFig8Hash = "9bb0c24a2354f18b25ba333e0a3d5c25b4c50711d63c587300a69ef5b9eba2ff"

	goldenGzipBasePRI = "218670e9df333ee5751bd891caebf85040d8fc5d06bca4bb6c3489748aa234ae"

	// goldenReportHash is WriteReport at goldenBudget: every table and figure
	// driver plus the shape checklist. It equals the digest of the file
	// `priexp -ff 2000 -run 8000 -report F` writes.
	goldenReportHash = "cb4e3c7ac582520c2aa272047e6b7371862ecc38c50950bff0f86478ad7d5c6e"
	// goldenPrefetchHash covers AblationPrefetch, the one driver the report
	// leaves out.
	goldenPrefetchHash = "f951960d9ab312bb35d1baff56e1a193d45a13fd26f160fdf33a444adac40cfc"

	// goldenWarmStateHash covers long fast-forwards: every workload
	// fast-forwarded 200k–400k instructions, its warm machine, cache and
	// predictor counters, and 4k timed instructions under base and
	// pri-rc-ckpt from the captured state.
	goldenWarmStateHash = "31fd75d2cb5ec6e5c73a8e7f6e4b260a8e693c9a66545936914f7387ff0b4da4"
)

var goldenBudget = Budget{FastForward: 2000, Run: 8000}

// statsFingerprint renders every counter the simulator accumulates — pipeline
// stats, both register classes' lifetime stats, occupancy, and cache/predictor
// rates — into one canonical string.
func statsFingerprint(p *ooo.Pipeline) string {
	st := p.Stats()
	return fmt.Sprintf("stats=%+v\nint=%+v\nfp=%+v\ndl1=%v l2=%v\n",
		*st, *p.Renamer().IntStats(), *p.Renamer().FPStats(),
		p.Mem().DL1.MissRate(), p.Mem().L2.MissRate())
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// TestGoldenFig8Table regenerates the paper's Figure 8 table serially at a
// fixed budget and asserts the rendered output is bit-identical to the
// recorded pre-rewrite kernel.
func TestGoldenFig8Table(t *testing.T) {
	tables, err := NewParallelRunner(goldenBudget, 1).Fig8(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := sha(tables[0].String()); got != goldenFig8Hash {
		t.Errorf("fig8 table diverged from golden kernel output:\ngot  %s\nwant %s\ntable:\n%s",
			got, goldenFig8Hash, tables[0].String())
	}
}

// TestGoldenAllExperiments pins every experiment driver's rendered output
// at goldenBudget, so a change to how drivers schedule or look up points
// cannot move a single byte of any table.
func TestGoldenAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	r := NewRunner(goldenBudget)
	var sb strings.Builder
	if err := r.WriteReport(context.Background(), &sb); err != nil {
		t.Fatal(err)
	}
	if got := sha(sb.String()); got != goldenReportHash {
		t.Errorf("report diverged from golden output:\ngot  %s\nwant %s\n%s", got, goldenReportHash, sb.String())
	}
	pf, err := r.AblationPrefetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := sha(pf[0].String()); got != goldenPrefetchHash {
		t.Errorf("prefetch ablation diverged from golden output:\ngot  %s\nwant %s\n%s", got, goldenPrefetchHash, pf[0].String())
	}
}

// TestGoldenFullStats runs one benchmark per machine/policy corner and checks
// the complete Stats structs (not just table-rounded values) bit for bit.
func TestGoldenFullStats(t *testing.T) {
	w, ok := workloads.ByName("gzip")
	if !ok {
		t.Fatal("gzip workload missing")
	}
	var fp string
	for _, cfg := range []ooo.Config{
		ooo.Width4(),
		ooo.Width4().WithPolicy(core.PolicyPRIRcCkpt),
		ooo.Width8().WithPolicy(core.PolicyPRIPlusER),
	} {
		p := ooo.New(cfg, w.Build(0))
		p.FastForward(goldenBudget.FastForward)
		p.Run(goldenBudget.Run)
		fp += cfg.Name + "/" + cfg.Rename.Policy.Name() + "\n" + statsFingerprint(p)
	}
	if got := sha(fp); got != goldenGzipBasePRI {
		t.Errorf("full-stats fingerprint diverged from golden kernel output:\ngot  %s\nwant %s\n%s",
			got, goldenGzipBasePRI, fp)
	}
}

// TestGoldenWarmState pins fast-forwards at sampled-simulation lengths, which
// the goldens above (at goldenBudget's 2k) never reach: each workload i is
// fast-forwarded 200,000 + (i·7,919 mod 200,000) instructions, and the hash
// covers the machine's position, every cache level's and the predictor's
// counters after the fast-forward, then the full statistics of 4k timed
// instructions under base and pri-rc-ckpt built from the captured state.
func TestGoldenWarmState(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	var sb strings.Builder
	for i, w := range workloads.All() {
		ff := uint64(200_000 + i*7_919%200_000)
		p := ooo.New(ooo.Width4(), w.Build(0))
		p.FastForward(ff)
		m, h, bp := p.Machine(), p.Mem(), p.Bpred()
		fmt.Fprintf(&sb, "%s ff=%d pc=%#x seq=%d\n", w.Name, ff, m.PC, m.Seq())
		for _, c := range []*memsys.Cache{h.IL1, h.DL1, h.L2} {
			fmt.Fprintf(&sb, "%s acc=%d miss=%d\n", c.Config().Name, c.Accesses, c.Misses)
		}
		fmt.Fprintf(&sb, "bpred lookups=%d dirmiss=%d tgtmiss=%d raspops=%d rasmiss=%d btbhits=%d btbmisses=%d\n",
			bp.Lookups, bp.DirMiss, bp.TargetMiss, bp.RASPops, bp.RASMiss, bp.BTBHits, bp.BTBMisses)
		warm := p.CaptureWarm()
		for _, pol := range []core.Policy{core.PolicyBase, core.PolicyPRIRcCkpt} {
			tp := ooo.NewFromWarm(ooo.Width4().WithPolicy(pol), warm)
			tp.Run(4_000)
			sb.WriteString(pol.Name() + "\n" + statsFingerprint(tp))
		}
	}
	if got := sha(sb.String()); got != goldenWarmStateHash {
		t.Errorf("warm-state fingerprint diverged from golden output:\ngot  %s\nwant %s\n%s",
			got, goldenWarmStateHash, sb.String())
	}
}
