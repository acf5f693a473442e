package core

import (
	"sync"
	"testing"

	"repro/internal/forbidden"
	"repro/internal/machines"
	"repro/internal/resmodel"
)

// TestFingerprintStableAndNameBlind checks the cache key's two defining
// properties: re-expanding the same machine hashes identically, and the
// hash depends on scheduling-relevant content only (renaming resources
// and operations does not change it, changing a usage cycle does).
func TestFingerprintStableAndNameBlind(t *testing.T) {
	m := machines.Cydra5()
	if Fingerprint(m.Expand()) != Fingerprint(m.Expand()) {
		t.Fatal("fingerprint differs across fresh expansions of the same machine")
	}

	build := func(name, r0, r1, op string, shift int) *resmodel.Expanded {
		b := resmodel.NewBuilder(name)
		b.Resources(r0, r1)
		b.Op(op, 4).Use(r0, 0).Use(r1, 1+shift)
		return b.Build().Expand()
	}
	base := build("a", "x", "y", "A", 0)
	renamed := build("b", "left", "right", "Zed", 0)
	shifted := build("a", "x", "y", "A", 1)
	if Fingerprint(base) != Fingerprint(renamed) {
		t.Error("fingerprint depends on names; want content-only hashing")
	}
	if Fingerprint(base) == Fingerprint(shifted) {
		t.Error("fingerprint ignores a usage-cycle change")
	}
}

// TestCacheSingleflight pins the memo contract: concurrent first requests
// for one key run the reduction exactly once and all receive the same
// verified *Result; later requests are hits.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache()
	e := machines.Cydra5().Expand()
	obj := Objective{Kind: ResUses}

	const callers = 8
	results := make([]*Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.Reduce(e, obj, 1)
		}(i)
	}
	wg.Wait()

	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a distinct Result; singleflight failed", i)
		}
	}
	hits, misses := c.Stats()
	if misses != 1 || hits != callers-1 {
		t.Errorf("stats = %d hits / %d misses, want %d / 1", hits, misses, callers-1)
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", c.Len())
	}
	if err := results[0].Verify(); err != nil {
		t.Errorf("cached result fails verification: %v", err)
	}

	// A different objective is a different key — a miss, not a collision.
	if c.Reduce(e, Objective{Kind: KCycleWord, K: 3}, 1) == results[0] {
		t.Error("distinct objectives share a cache entry")
	}
	if c.Len() != 2 {
		t.Errorf("cache holds %d entries after second objective, want 2", c.Len())
	}
}

// TestParallelPipelineMatchesSerial is the equivalence suite for every
// parallel stage of the reduction pipeline: the F matrix and the
// end-to-end reduction must match the serial reference exactly at any
// worker count. (The generating set is serial; TestGeneratingSetMatchesReference
// pins it against the pre-rewrite oracle.)
func TestParallelPipelineMatchesSerial(t *testing.T) {
	for _, m := range []*resmodel.Machine{machines.Cydra5(), machines.MIPS()} {
		e := m.Expand()

		serialF := forbidden.Compute(e)
		for _, w := range []int{2, 8} {
			if !serialF.Equal(forbidden.ComputeParallel(e, w)) {
				t.Errorf("%s: F matrix differs at workers=%d", m.Name, w)
			}
		}

		for _, obj := range []Objective{{Kind: ResUses}, {Kind: KCycleWord, K: 3}} {
			serial := Reduce(e, obj)
			par := ReduceParallel(e, obj, 8)
			if err := par.Verify(); err != nil {
				t.Errorf("%s/%v: parallel reduction fails verification: %v", m.Name, obj, err)
			}
			if serial.NumResources() != par.NumResources() || serial.NumUsages() != par.NumUsages() {
				t.Errorf("%s/%v: parallel reduction %d res/%d uses, serial %d/%d",
					m.Name, obj, par.NumResources(), par.NumUsages(),
					serial.NumResources(), serial.NumUsages())
			}
			if !serial.ClassMatrix.Equal(par.ClassMatrix) {
				t.Errorf("%s/%v: class matrices differ between serial and parallel", m.Name, obj)
			}
		}
	}
}

// TestExactCoverWorkersSameOptimum checks the shared-bound branch and
// bound: the optimum usage count is invariant under worker count (the
// witness cover may legitimately differ).
func TestExactCoverWorkersSameOptimum(t *testing.T) {
	for _, m := range []*resmodel.Machine{machines.Cydra5(), machines.MIPS()} {
		f := forbidden.Compute(m.Expand())
		cm := f.Collapse(f.ComputeClasses())
		G := Prune(cm, GeneratingSet(cm, nil))
		serial := ExactCover(cm, G, 200_000)
		for _, w := range []int{2, 8} {
			par := ExactCoverWorkers(cm, G, 200_000, w)
			if par.Optimal != serial.Optimal || (serial.Optimal && par.Usages != serial.Usages) {
				t.Errorf("%s: workers=%d cover (usages=%d optimal=%v), serial (usages=%d optimal=%v)",
					m.Name, w, par.Usages, par.Optimal, serial.Usages, serial.Optimal)
			}
		}
	}
}
