package memsys

import (
	"reflect"
	"testing"
)

func checkFields(t *testing.T, what string, v any, handled []string) {
	t.Helper()
	typ := reflect.TypeOf(v)
	got := make(map[string]bool, typ.NumField())
	for i := 0; i < typ.NumField(); i++ {
		got[typ.Field(i).Name] = true
	}
	for _, f := range handled {
		if !got[f] {
			t.Errorf("%s: handled field %q no longer exists; update Clone and this list", what, f)
		}
		delete(got, f)
	}
	for f := range got {
		t.Errorf("%s: new field %q is not handled by Clone — update Clone, then add it here", what, f)
	}
}

// TestCacheCloneCompleteness pins the field set Cache.Clone handles.
func TestCacheCloneCompleteness(t *testing.T) {
	checkFields(t, "memsys.Cache", Cache{}, []string{
		"cfg", "sets", "lineBits", "setShift", "clock", // by-value via *c
		"last", "lastBlk", // last-line memo, by value via *c: an index into lines
		"lines",                            // deep-copied
		"Accesses", "Misses", "Writebacks", // statistics, by value
	})
}

// TestHierarchyCloneCompleteness pins the field set Hierarchy.Clone handles.
func TestHierarchyCloneCompleteness(t *testing.T) {
	checkFields(t, "memsys.Hierarchy", Hierarchy{}, []string{
		"IL1", "DL1", "L2", // per-level Cache.Clone
		"cfg",                     // by value
		"mshrs",                   // mshrFile.clone
		"MSHRWaits", "Prefetches", // statistics, by value
	})
	checkFields(t, "memsys.mshrFile", mshrFile{}, []string{"busyUntil"})
}

// stream drives a deterministic mixed access pattern through h.
func stream(h *Hierarchy, seed uint64, n int) {
	for i, a := range mixedStream(seed, n) {
		a.drive(h, uint64(i))
	}
}

func hierFingerprint(h *Hierarchy) [5]uint64 {
	var sum [5]uint64
	for i, c := range []*Cache{h.IL1, h.DL1, h.L2} {
		for _, ln := range c.lines {
			v := ln.tag*3 + ln.lru*7
			if ln.valid {
				v++
			}
			if ln.dirty {
				v += 2
			}
			sum[i] = sum[i]*31 + v
		}
		sum[i] += c.clock*5 + c.Accesses*11 + c.Misses*13 + c.Writebacks*17
	}
	if h.mshrs != nil {
		for _, b := range h.mshrs.busyUntil {
			sum[3] = sum[3]*31 + b
		}
	}
	sum[4] = h.MSHRWaits*3 + h.Prefetches
	return sum
}

// TestHierarchyCloneMatchesAndDiverges checks a clone starts identical,
// stays isolated, and continues exactly like a directly warmed hierarchy.
func TestHierarchyCloneMatchesAndDiverges(t *testing.T) {
	cfg := Default()
	cfg.MSHRs = 4
	cfg.NextLinePrefetch = true

	warm := New(cfg)
	stream(warm, 1, 4000)

	ref := New(cfg)
	stream(ref, 1, 4000)

	c := warm.Clone()
	if hierFingerprint(c) != hierFingerprint(warm) {
		t.Fatal("clone state differs from source immediately after Clone")
	}

	before := hierFingerprint(warm)
	stream(c, 2, 2000)
	if hierFingerprint(warm) != before {
		t.Fatal("driving the clone mutated the source hierarchy")
	}

	stream(ref, 2, 2000)
	if hierFingerprint(c) != hierFingerprint(ref) {
		t.Fatal("clone behaved differently from an equivalently warmed hierarchy")
	}
}
