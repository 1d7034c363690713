package harness

import (
	"context"

	"prisim/internal/bpred"
	"prisim/internal/memsys"
	"prisim/internal/ooo"
	"prisim/internal/workloads"
)

// Fast-forward snapshot cache. Every point of a sweep replays the same
// functional fast-forward even though that warm-up state is provably
// independent of the rename policy under measurement (ooo.WarmState
// documents why). The Runner therefore fast-forwards each workload once,
// captures the warm machine/predictor/cache state, and constructs every
// later pipeline for that workload from a copy-on-write clone.
//
// Snapshots are keyed by (workload identity, fast-forward budget, memory
// config, predictor config) — everything FastForward's outcome depends on —
// and never by policy, width, or register-file size, so one snapshot serves
// a whole policy/width/PR sweep. The cache is a flightTable like the run
// cache: one caller builds while concurrent callers for the same key wait,
// and the build holds a worker-pool slot only while it runs (waiters hold
// nothing, so waiting cannot deadlock the pool).

// maxSnapshots bounds resident warm states; least-recently-used completed
// entries are evicted beyond it. An evicted snapshot still referenced by
// in-flight runs stays alive until they finish (it is immutable), so
// SnapshotBytes tracks the cache's view, not total process residency.
const maxSnapshots = 32

// snapKey identifies one warm fast-forward image.
type snapKey struct {
	bench string
	ff    uint64
	mem   memsys.Config
	bp    bpred.Config
}

// snapshot is one cached warm state with its LRU stamp.
type snapshot struct {
	w       *ooo.WarmState
	lastUse uint64 // the runner's shared mu serializes access
}

// snapHitLocked counts a run served by a cached snapshot and marks the
// snapshot recently used.
func (s *shared) snapHitLocked(sn *snapshot, _ bool) {
	s.snapHits++
	s.snapClock++
	sn.lastUse = s.snapClock
}

// snapLandedLocked counts a finished build and, unless SetSnapshots(false)
// dropped its entry mid-build, accounts it as resident and evicts down to
// maxSnapshots.
func (s *shared) snapLandedLocked(sn *snapshot, resident bool) {
	s.snapBuilds++
	if resident {
		s.snapClock++
		sn.lastUse = s.snapClock
		s.snapBytes += sn.w.Bytes()
		s.evictSnapshotsLocked()
	}
}

// snapshotKey derives the cache key for one run: the workload plus every
// configuration axis that influences fast-forward state.
func (r *Runner) snapshotKey(w workloads.Workload, cfg ooo.Config) snapKey {
	return snapKey{bench: w.Name, ff: r.Budget.FastForward, mem: cfg.Mem, bp: cfg.Bpred}
}

// SetSnapshots enables or disables the fast-forward snapshot cache (enabled
// by default). Disabling drops resident snapshots and makes subsequent runs
// replay their fast-forward; results are byte-identical either way.
func (r *Runner) SetSnapshots(enabled bool) {
	r.s.mu.Lock()
	r.s.snapsOff = !enabled
	if !enabled {
		r.s.dropSnapshotsLocked()
	}
	r.s.mu.Unlock()
}

// dropSnapshotsLocked empties the snapshot cache. Builds in flight finish
// for their own callers but find their entry gone and stay unaccounted.
// It is a Locked helper because lockcheck cannot see that the table's mu is
// the shared lock the caller holds.
func (s *shared) dropSnapshotsLocked() {
	s.snaps.flights = make(map[snapKey]*flight[*snapshot])
	s.snapBytes = 0
}

// warmFor returns the warm fast-forward state for (w, cfg), building it on
// first request and sharing it afterwards. It returns (nil, nil) when
// snapshots are disabled or there is nothing to fast-forward; the caller
// then replays the fast-forward itself.
func (r *Runner) warmFor(ctx context.Context, w workloads.Workload, cfg ooo.Config) (*ooo.WarmState, error) {
	if r.Budget.FastForward == 0 {
		return nil, nil
	}
	r.s.mu.Lock()
	off := r.s.snapsOff
	r.s.mu.Unlock()
	if off {
		return nil, nil
	}
	sn, err := r.s.snaps.do(ctx, r.snapshotKey(w, cfg), nil, func() (*snapshot, error) {
		return r.buildSnapshot(ctx, w, cfg)
	})
	if err != nil {
		return nil, err
	}
	return sn.w, nil
}

// buildSnapshot fast-forwards one workload inside a worker-pool slot and
// captures the warm state. The slot is held only for the build; waiters in
// warmFor hold no slot.
func (r *Runner) buildSnapshot(ctx context.Context, w workloads.Workload, cfg ooo.Config) (*snapshot, error) {
	select {
	case r.s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-r.s.sem }()

	p := ooo.New(cfg, w.Build(0))
	if err := runChunked(ctx, p.FastForward, r.Budget.FastForward); err != nil {
		return nil, err
	}
	return &snapshot{w: p.CaptureWarm()}, nil
}

// evictSnapshotsLocked drops least-recently-used completed snapshots until
// the cache is within maxSnapshots. In-flight builds are never evicted.
//
//prisim:locked
func (s *shared) evictSnapshotsLocked() {
	for len(s.snaps.flights) > maxSnapshots {
		var victimKey snapKey
		var victim *snapshot
		//lint:ignore determinism LRU selection by minimal lastUse stamp is order-independent: stamps are unique, so the minimum is unique
		for k, f := range s.snaps.flights {
			select {
			case <-f.done: // failed builds leave the table before done closes
			default:
				continue // still building
			}
			if victim == nil || f.val.lastUse < victim.lastUse {
				victimKey, victim = k, f.val
			}
		}
		if victim == nil {
			return // everything is in flight; nothing evictable
		}
		s.snapBytes -= victim.w.Bytes()
		delete(s.snaps.flights, victimKey)
	}
}
