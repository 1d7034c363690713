package harness

import (
	"context"
	"testing"
	"time"

	"prisim/internal/core"
	"prisim/internal/ooo"
	"prisim/internal/workloads"
)

// TestPanickedFlightIsEvicted pins that an owner panicking mid-flight
// evicts its flight: later requests for the same point, or for a point
// sharing only its snapshot, panic again at once instead of blocking on a
// flight nobody will close. The machine panics in ooo.New, which runs in the
// snapshot build when snapshots are on and in the run itself when off.
func TestPanickedFlightIsEvicted(t *testing.T) {
	w, _ := workloads.ByName("gzip")
	bad := ooo.Width4()
	bad.ROBSize = 0
	for _, snapshots := range []bool{true, false} {
		r := NewParallelRunner(tinyBudget, 2)
		r.SetSnapshots(snapshots)
		for i, cfg := range []ooo.Config{bad, bad.WithPolicy(core.PolicyPRIRcCkpt), bad} {
			ctx, cancel := context.WithTimeout(bg, 3*time.Second)
			var err error
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("snapshots=%t call %d returned %v, want the machine's panic", snapshots, i, err)
					}
				}()
				_, err = r.RunCtx(ctx, w, cfg)
			}()
			cancel()
		}
		if cs := r.CacheStats(); cs.Executed != 0 || cs.SnapshotBuilds != 0 {
			t.Errorf("snapshots=%t CacheStats = %+v, want no executed runs or builds", snapshots, cs)
		}
	}
}
