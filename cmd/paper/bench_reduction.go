package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/forbidden"
	"repro/internal/machines"
)

// exactBenchBudget is the fixed node budget for the stage-exact entry: a
// deterministic amount of branch-and-bound work, large enough to time
// meaningfully but bounded regardless of the machine.
const exactBenchBudget = 200_000

// benchMachines is the Tables 1-4 workload the per-stage report runs.
var benchMachines = []string{"mips", "alpha", "cydra5", "cydra5-subset"}

// benchReps is how many times each measurement repeats; the report keeps
// the per-stage minimum. One-shot wall times on a loaded host are too
// noisy to gate a 20% regression threshold on millisecond-scale stages.
const benchReps = 3

// stageTimes accumulates wall time per reduction stage across the
// four-machine workload.
type stageTimes struct {
	fmatrix, genset, prune, sel int64
}

func minNZ(a, b int64) int64 {
	if a == 0 || (b != 0 && b < a) {
		return b
	}
	return a
}

// measureStages runs the reduction stage by stage on every bench machine
// at the given worker count benchReps times, keeping each stage's
// fastest run. SelectCover runs under both paper objectives, mirroring
// the reduction-pipeline entry of -bench-json.
func measureStages(w int) stageTimes {
	var best stageTimes
	for rep := 0; rep < benchReps; rep++ {
		t := measureStagesOnce(w)
		best.fmatrix = minNZ(best.fmatrix, t.fmatrix)
		best.genset = minNZ(best.genset, t.genset)
		best.prune = minNZ(best.prune, t.prune)
		best.sel = minNZ(best.sel, t.sel)
	}
	return best
}

func measureStagesOnce(w int) stageTimes {
	var t stageTimes
	for _, name := range benchMachines {
		e := machines.ByName(name).Expand()

		start := time.Now()
		m := forbidden.ComputeParallel(e, w)
		cm := m.Collapse(m.ComputeClasses())
		t.fmatrix += time.Since(start).Nanoseconds()

		start = time.Now()
		gen := core.GeneratingSet(cm, nil)
		t.genset += time.Since(start).Nanoseconds()

		start = time.Now()
		pruned := core.Prune(cm, gen)
		t.prune += time.Since(start).Nanoseconds()

		start = time.Now()
		for _, obj := range []core.Objective{
			{Kind: core.ResUses},
			{Kind: core.KCycleWord, K: 3},
		} {
			core.SelectCover(cm, pruned, obj)
		}
		t.sel += time.Since(start).Nanoseconds()
	}
	return t
}

// runBenchReduction writes the per-stage reduction wall-time report
// (BENCH_reduction.json, same schema as BENCH_parallel.json): one entry
// per pipeline stage over the Tables 1-4 workload, plus the exact-cover
// branch and bound on the Cydra 5 subset under a fixed node budget.
// Prune and SelectCover are serial stages, so their parallel column
// re-measures the same serial code (speedup ~1 by construction); the
// generating set is serial too and is reported serial-only (workers 1,
// no parallel column). The per-stage serial times are the report's point.
func runBenchReduction(path string, workers int) error {
	rep := benchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
	}

	fmt.Fprintf(os.Stderr, "paper: bench-reduction: %d workers\n", workers)

	serial := measureStages(1)
	par := measureStages(workers)
	mk := func(name string, s, p int64) benchEntry {
		e := benchEntry{Name: name, Workers: workers, SerialNS: s, ParallelNS: p,
			GoMaxProcs: rep.GoMaxProcs, NumCPU: rep.NumCPU}
		if p > 0 {
			e.Speedup = float64(s) / float64(p)
		} else {
			e.Workers = 1
		}
		return e
	}
	rep.Entries = append(rep.Entries,
		mk("stage-fmatrix", serial.fmatrix, par.fmatrix),
		mk("stage-genset", serial.genset, 0),
		mk("stage-prune", serial.prune, par.prune),
		mk("stage-select", serial.sel, par.sel),
	)

	// Exact cover: fixed node budget on the Cydra 5 subset's pruned
	// generating set, serial versus pooled subtree search.
	e := machines.ByName("cydra5-subset").Expand()
	m := forbidden.ComputeParallel(e, workers)
	cm := m.Collapse(m.ComputeClasses())
	pruned := core.Prune(cm, core.GeneratingSet(cm, nil))
	var exS, exP int64
	for rep := 0; rep < benchReps; rep++ {
		exS = minNZ(exS, timeIt(func() { core.ExactCoverWorkers(cm, pruned, exactBenchBudget, 1) }))
		exP = minNZ(exP, timeIt(func() { core.ExactCoverWorkers(cm, pruned, exactBenchBudget, workers) }))
	}
	rep.Entries = append(rep.Entries, mk("stage-exact", exS, exP))

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	for _, e := range rep.Entries {
		if e.ParallelNS == 0 {
			fmt.Fprintf(os.Stderr, "paper: bench-reduction: %-14s serial %9.2fms  (serial only)\n",
				e.Name, float64(e.SerialNS)/1e6)
			continue
		}
		fmt.Fprintf(os.Stderr, "paper: bench-reduction: %-14s serial %9.2fms  parallel %9.2fms  speedup %.2fx\n",
			e.Name, float64(e.SerialNS)/1e6, float64(e.ParallelNS)/1e6, e.Speedup)
	}
	fmt.Printf("wrote %s (%d entries)\n", path, len(rep.Entries))
	return nil
}
