package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/machines"
	"repro/internal/query"
	"repro/internal/sched"
	"repro/internal/tables"
)

// runBenchSched writes the scheduler wall-time report (BENCH_sched.json,
// benchReport schema): the full IMS loop corpus scheduled once per Table
// 6 representation (original vs reduced x discrete vs bitvector), timing
// the backend's range-query slot scan (serial_ns — the column benchgate
// gates) against the per-cycle CheckWithAlt scan over the same factory
// wrapped in query.PerCycle (parallel_ns), with speedup = naive/range.
// Both produce byte-identical schedules (pinned by the sched package's
// range-vs-per-cycle differential tests), so the comparison times pure
// query-strategy differences. Each measurement is the best of
// benchReps runs. The per-representation probe statistics ride along:
// check_equiv_per_decision is the naive-equivalent probe count per
// scheduling decision and range_work_per_decision the packed words or
// table cells the range scan actually touched per decision — the gap
// between them is the paper's k-cycles-per-word economics at work.
func runBenchSched(path string, workers, loopLimit int) error {
	m := machines.Cydra5()
	loops := tables.BenchmarkLoops(m)
	if loopLimit > 0 && loopLimit < len(loops) {
		loops = loops[:loopLimit]
	}
	rep := benchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Loops:       len(loops),
	}

	fmt.Fprintf(os.Stderr, "paper: bench-sched: %d loops, %d workers\n", len(loops), workers)

	for _, r := range tables.PaperRepresentations(m) {
		factory := r.Factory()
		// Scheduling runs through per-worker arenas (modules reset, not
		// rebuilt; zero allocations per loop in steady state), the same
		// path the throughput benchmark ships. Schedules are identical to
		// fresh per-loop modules (TestArenaMatchesFreshCorpus).
		perCycle := func(ii int) query.Module { return query.PerCycle(factory(ii)) }
		cfg := sched.Config{BudgetRatio: 6}
		runCorpus := func(f sched.ModuleFactory) {
			for _, res := range sched.ScheduleBatchArena(loops, m, f, cfg, workers) {
				if !res.OK {
					panic(fmt.Sprintf("bench-sched: %s failed to schedule a corpus loop", r.Label))
				}
			}
		}
		// One untimed pass per side first, so the shared compiled-table
		// cache and the allocator are warm before either side is measured.
		runCorpus(factory)
		runCorpus(perCycle)
		// More reps than the reduction bench: the two sides differ by a
		// modest constant factor, so best-of needs enough samples for the
		// minimum to shed scheduler-external interference on both sides.
		const schedReps = 5 * benchReps
		var rangeNS, naiveNS int64
		for i := 0; i < schedReps; i++ {
			rangeNS = minNZ(rangeNS, timeIt(func() { runCorpus(factory) }))
			naiveNS = minNZ(naiveNS, timeIt(func() { runCorpus(perCycle) }))
		}

		// One instrumented serial pass for the probe statistics: capture
		// every module the scheduler builds (one per II attempt) and fold
		// its counters after the loop is scheduled.
		var checkEquiv, rangeWork int64
		decisions := 0
		for _, g := range loops {
			var ctrs []*query.Counters
			wrapped := func(ii int) query.Module {
				mod := factory(ii)
				ctrs = append(ctrs, mod.Counters())
				return mod
			}
			res := sched.Schedule(g, m, wrapped, cfg)
			decisions += res.Decisions
			for _, c := range ctrs {
				checkEquiv += c.CheckCalls + c.FirstFreeCycles
				rangeWork += c.FirstFreeWork
			}
		}

		e := benchEntry{
			Name:       "sched-ims-" + r.Label,
			Workers:    workers,
			SerialNS:   rangeNS,
			ParallelNS: naiveNS,
			GoMaxProcs: rep.GoMaxProcs,
			NumCPU:     rep.NumCPU,
		}
		if rangeNS > 0 {
			e.Speedup = float64(naiveNS) / float64(rangeNS)
		}
		if decisions > 0 {
			e.CheckEquivPerDecision = float64(checkEquiv) / float64(decisions)
			e.RangeWorkPerDecision = float64(rangeWork) / float64(decisions)
		}
		rep.Entries = append(rep.Entries, e)
		fmt.Fprintf(os.Stderr, "paper: bench-sched: %-22s range %8.1fms  naive %8.1fms  speedup %.2fx  checks/dec %.2f  range-work/dec %.2f\n",
			r.Label, float64(rangeNS)/1e6, float64(naiveNS)/1e6, e.Speedup, e.CheckEquivPerDecision, e.RangeWorkPerDecision)
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d entries)\n", path, len(rep.Entries))
	return nil
}
