package sched

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/loopgen"
	"repro/internal/machines"
	"repro/internal/query"
	"repro/internal/resmodel"
)

// selectFactory returns a ModuleFactory pinned to one registered
// backend over e via the selection chokepoint. Feasibility must be
// established by the caller before handing the factory to worker
// goroutines (a factory cannot report errors).
func selectFactory(e *resmodel.Expanded, rep string) ModuleFactory {
	return func(ii int) query.Module {
		sel, err := query.Select(e, query.Policy{Representation: rep, II: ii})
		if err != nil {
			panic(err)
		}
		return sel.Module
	}
}

// TestAcyclicCorpusBackendsIdentical is the full-corpus differential
// suite for the hybrid backend: scheduling 200 basic blocks over the
// reduced PA-RISC description must produce byte-identical schedules on
// the FSA, discrete and bitvector backends — sequentially and through
// striped per-worker arenas at 1 and 8 workers — and the backends must
// agree on every query-count statistic (calls and naive-equivalent range
// probes; only the work per probe may differ).
func TestAcyclicCorpusBackendsIdentical(t *testing.T) {
	m := machines.ByName("parisc")
	red := core.Reduce(m.Expand(), core.Objective{Kind: core.KCycleWord, K: 64})
	if err := red.Verify(); err != nil {
		t.Fatal(err)
	}
	e := red.Reduced
	dcfg := loopgen.DefaultDAG(m)
	dcfg.Blocks = 200
	dags, err := loopgen.GenerateDAGs(m, dcfg)
	if err != nil {
		t.Fatal(err)
	}

	backends := []string{"discrete", "bitvector", "fsa"}
	results := map[string][]ListResult{}
	totals := map[string]*query.Counters{}
	for _, rep := range backends {
		if _, err := query.Select(e, query.Policy{Representation: rep}); err != nil {
			t.Fatalf("%s infeasible on parisc/reduced: %v", rep, err)
		}
		rs := make([]ListResult, 0, len(dags))
		total := &query.Counters{}
		for _, g := range dags {
			sel, err := query.Select(e, query.Policy{Representation: rep})
			if err != nil {
				t.Fatal(err)
			}
			r, err := OperationDriven(g, e, sel.Module)
			if err != nil {
				t.Fatalf("%s/%s: %v", rep, g.Name, err)
			}
			rs = append(rs, r)
			total.AddFrom(sel.Module.Counters())
		}
		results[rep] = rs
		totals[rep] = total
	}

	ref, refCtr := results["discrete"], totals["discrete"]
	for _, rep := range []string{"bitvector", "fsa"} {
		for i := range dags {
			if !reflect.DeepEqual(results[rep][i], ref[i]) {
				t.Fatalf("%s/%s: schedule differs from discrete\n%s: %+v\ndiscrete: %+v",
					rep, dags[i].Name, rep, results[rep][i], ref[i])
			}
		}
		c := totals[rep]
		if c.TotalCalls() != refCtr.TotalCalls() ||
			c.FirstFreeCalls != refCtr.FirstFreeCalls ||
			c.FirstFreeWithAltCalls != refCtr.FirstFreeWithAltCalls ||
			c.FirstFreeCycles != refCtr.FirstFreeCycles {
			t.Errorf("%s: query-count statistics differ from discrete\n%s: calls=%d ff=%d ffa=%d probes=%d\ndiscrete: calls=%d ff=%d ffa=%d probes=%d",
				rep, rep, c.TotalCalls(), c.FirstFreeCalls, c.FirstFreeWithAltCalls, c.FirstFreeCycles,
				refCtr.TotalCalls(), refCtr.FirstFreeCalls, refCtr.FirstFreeWithAltCalls, refCtr.FirstFreeCycles)
		}
	}

	// Striped per-worker arenas: module reuse via Reset must not change
	// a single placement at any worker count.
	for _, rep := range backends {
		factory := selectFactory(e, rep)
		for _, workers := range []int{1, 8} {
			got := make([]ListResult, len(dags))
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					a := NewArena(factory)
					for i := w; i < len(dags); i += workers {
						r, err := a.OperationDriven(dags[i], e)
						if err != nil {
							panic(err)
						}
						got[i] = r
					}
				}(w)
			}
			wg.Wait()
			for i := range dags {
				if !reflect.DeepEqual(got[i], ref[i]) {
					t.Fatalf("%s workers=%d %s: arena schedule differs from discrete reference\narena: %+v\nref:   %+v",
						rep, workers, dags[i].Name, got[i], ref[i])
				}
			}
		}
	}
}

// TestAutoBackendCorpusDeterministic pins "auto" end to end at the
// scheduler layer: modulo-scheduling a 200-loop Cydra 5 corpus through
// arenas whose factory auto-selects per II yields exactly the pinned
// discrete backend's schedules (backend equivalence), identically at 1
// and 8 workers and across repeated runs (the calibration is pure and
// cached, never wall-clock).
func TestAutoBackendCorpusDeterministic(t *testing.T) {
	m := machines.Cydra5()
	red := core.Reduce(m.Expand(), core.Objective{Kind: core.KCycleWord, K: 64})
	if err := red.Verify(); err != nil {
		t.Fatal(err)
	}
	e := red.Reduced
	loops, err := loopgen.GenerateStrata(m, loopgen.DefaultStrata(200))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	ref := ScheduleBatchArena(loops, m, selectFactory(e, "discrete"), cfg, 1)
	for _, workers := range []int{1, 8} {
		for run := 0; run < 2; run++ {
			got := ScheduleBatchArena(loops, m, selectFactory(e, "auto"), cfg, workers)
			for i := range loops {
				if !reflect.DeepEqual(got[i], ref[i]) {
					t.Fatalf("workers=%d run=%d loop %d (%s): auto schedule differs from discrete\nauto:     %+v\ndiscrete: %+v",
						workers, run, i, loops[i].Name, got[i], ref[i])
				}
			}
		}
	}
}
