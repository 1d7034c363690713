package fabric

import (
	"testing"

	"prisim/prisimclient"
)

// affinityCoord builds the minimal Coordinator state pickWorkerLocked needs.
func affinityCoord(slots int, ids ...string) *Coordinator {
	c := &Coordinator{
		cfg:      Config{WorkerSlots: slots},
		workers:  make(map[string]*worker),
		affinity: make(map[string]string),
	}
	for _, id := range ids {
		c.workers[id] = &worker{id: id}
		c.workerOrder = append(c.workerOrder, id)
	}
	return c
}

func pointFor(bench string) *flight {
	return &flight{req: prisimclient.JobRequest{Benchmark: bench, FastForward: 20_000, Run: 1000}}
}

// TestWorkloadAffinityStickiness checks the snapshot-reuse hint: once a
// workload has run on a node, later points of that workload keep landing
// there (the node's engine holds the warm fast-forward state), while other
// workloads still round-robin onto other nodes.
func TestWorkloadAffinityStickiness(t *testing.T) {
	c := affinityCoord(2, "node-a", "node-b", "node-c")

	first := c.pickWorkerLocked(pointFor("gzip"))
	if first == nil {
		t.Fatal("no worker picked")
	}
	for i := 0; i < 4; i++ {
		if w := c.pickWorkerLocked(pointFor("gzip")); w != first {
			t.Fatalf("pick %d for gzip landed on %s, want affinity node %s", i, w.id, first.id)
		}
	}
	// A different workload must not pile onto the affinity node while other
	// nodes are idle.
	if w := c.pickWorkerLocked(pointFor("mcf")); w == first {
		t.Errorf("mcf landed on gzip's affinity node %s with idle nodes available", first.id)
	}
	// A different fast-forward budget is a different snapshot, so it carries
	// no affinity with the base workload's node.
	other := &flight{req: prisimclient.JobRequest{Benchmark: "gzip", FastForward: 5000, Run: 1000}}
	if k := affinityKey(other.req); k == affinityKey(pointFor("gzip").req) {
		t.Errorf("distinct fast-forward budgets share affinity key %q", k)
	}
}

// TestWorkloadAffinitySpill checks that a saturated or failed affinity node
// does not capture the workload forever: the point spills to another node
// and the affinity follows it.
func TestWorkloadAffinitySpill(t *testing.T) {
	c := affinityCoord(1, "node-a", "node-b")

	first := c.pickWorkerLocked(pointFor("gzip"))
	first.inflight = 1 // saturate the affinity node
	spill := c.pickWorkerLocked(pointFor("gzip"))
	if spill == nil || spill == first {
		t.Fatalf("saturated affinity node was not spilled (got %v)", spill)
	}
	if got := c.affinity[affinityKey(pointFor("gzip").req)]; got != spill.id {
		t.Errorf("affinity after spill = %q, want %q", got, spill.id)
	}

	// A retried point avoids the node that just failed it, even when that
	// node holds the affinity.
	f := pointFor("gzip")
	f.lastWorker = spill.id
	first.inflight = 0
	if w := c.pickWorkerLocked(f); w == nil || w.id == spill.id {
		t.Errorf("retry was sent back to the failing affinity node %s", spill.id)
	}
}

// TestWorkloadAffinityFailedPickChangesNothing checks that a pick on a
// saturated pool returns nil and leaves the round-robin position and the
// recorded affinity as they were, and that a stale affinity to a
// deregistered node does not wedge picking.
func TestWorkloadAffinityFailedPickChangesNothing(t *testing.T) {
	c := affinityCoord(1, "node-a", "node-b")
	f := pointFor("gzip")
	key := affinityKey(f.req)
	c.rr = 1
	c.affinity[key] = "node-a"
	for _, w := range c.workers {
		w.inflight = 1
	}
	if w := c.pickWorkerLocked(f); w != nil {
		t.Fatalf("saturated pool picked %s", w.id)
	}
	if got := c.affinity[key]; len(c.affinity) != 1 || got != "node-a" {
		t.Errorf("failed pick changed affinity to %v", c.affinity)
	}
	if c.rr != 1 {
		t.Errorf("failed pick moved round-robin to %d, want 1", c.rr)
	}
	// A deregistered affinity node must not wedge picking.
	for _, w := range c.workers {
		w.inflight = 0
	}
	c.affinity[key] = "node-gone"
	if w := c.pickWorkerLocked(f); w == nil {
		t.Error("stale affinity to a deregistered node blocked picking")
	}
}
