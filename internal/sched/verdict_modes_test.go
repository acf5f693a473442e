package sched

import (
	"reflect"
	"testing"

	"repro/internal/loopgen"
	"repro/internal/machines"
	"repro/internal/query"
)

// perCycleFactory wraps f so every module it builds hides its range
// scan behind query.PerCycle: schedulers then probe one candidate cycle
// at a time, the reference the range scans are differentially tested
// against.
func perCycleFactory(f ModuleFactory) ModuleFactory {
	return func(ii int) query.Module { return query.PerCycle(f(ii)) }
}

// TestVerdictScanModesCorpusIdentical pins the range scan against the
// per-cycle reference on the full 200-loop Cydra 5 corpus: modulo
// scheduling over the reduced packed-bitvector description produces
// byte-identical schedules whether slots are found by bit-parallel
// verdict words or by the per-cycle loop, through per-worker arenas at 1
// and 8 workers. The scheduler's probe currency (CheckCalls +
// FirstFreeCycles) must be conserved against the per-cycle mode that
// never issues a range query at all.
func TestVerdictScanModesCorpusIdentical(t *testing.T) {
	m := machines.Cydra5()
	st := loopgen.DefaultStrata(200)
	loops, err := loopgen.GenerateStrata(m, st)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	verdictFactory := reducedBitvecFactory(t, m.Expand())
	modes := []struct {
		name    string
		factory ModuleFactory
	}{
		{"verdict", verdictFactory},
		{"naive", perCycleFactory(verdictFactory)},
	}

	ref := ScheduleBatchArena(loops, m, modes[0].factory, cfg, 1)
	for _, mode := range modes {
		for _, workers := range []int{1, 8} {
			got := ScheduleBatchArena(loops, m, mode.factory, cfg, workers)
			for i := range loops {
				if !reflect.DeepEqual(got[i], ref[i]) {
					t.Fatalf("%s workers=%d loop %d (%s): schedule differs from verdict reference\n%s: %+v\nverdict: %+v",
						mode.name, workers, i, loops[i].Name, mode.name, got[i], ref[i])
				}
			}
		}
	}

	// Counter accounting, through the streamed driver so per-worker arena
	// counters are summed exactly once per mode.
	stats := map[string]StreamStats{}
	for _, mode := range modes {
		var first StreamStats
		for wi, workers := range []int{1, 8} {
			s, err := loopgen.NewStream(m, st)
			if err != nil {
				t.Fatal(err)
			}
			got := ScheduleStream(s.Next, m, mode.factory, cfg, workers, 64)
			if wi == 0 {
				first = got
			} else if !reflect.DeepEqual(got, first) {
				t.Fatalf("%s: stream stats differ between workers=1 and workers=%d\nw1: %+v\nw%d: %+v",
					mode.name, workers, first, workers, got)
			}
		}
		stats[mode.name] = first
	}

	v, n := stats["verdict"], stats["naive"]
	if v.Counters.FirstFreeVerdictWords == 0 {
		t.Error("verdict mode built no verdict words; the bit-parallel scan did not run")
	}
	if v.Counters.FirstFreeSkips == 0 {
		t.Error("verdict mode recorded no summary skips; the occupancy fast path did not run")
	}
	if n.Counters.FirstFreeCalls != 0 || n.Counters.FirstFreeWithAltCalls != 0 || n.Counters.FirstFreeVerdictWords != 0 {
		t.Errorf("naive mode issued range queries: ff=%d ffa=%d verdict words=%d",
			n.Counters.FirstFreeCalls, n.Counters.FirstFreeWithAltCalls, n.Counters.FirstFreeVerdictWords)
	}

	// Probe-currency conservation: the per-cycle probes the naive loop
	// issues equal the naive-equivalent probes the range scan charges
	// (ims.go budgets decisions in this currency).
	probes := func(s StreamStats) int64 { return s.Counters.CheckCalls + s.Counters.FirstFreeCycles }
	if probes(v) != probes(n) {
		t.Errorf("probe currency not conserved: verdict=%d naive=%d", probes(v), probes(n))
	}
	if v.Loops != n.Loops || v.Failed != n.Failed || v.Decisions != n.Decisions ||
		v.SumII != n.SumII || v.SumMII != n.SumMII {
		t.Errorf("aggregate schedule stats differ between verdict and naive\nverdict: %+v\nnaive:   %+v", v, n)
	}
}

// TestArenaScanModesZeroAlloc extends the steady-state allocation pin to
// both slot-search modes of the reduced bitvector backend: after one
// warmup pass, scheduling a corpus through an arena allocates nothing
// per loop whether ranges are answered by verdict words or by the
// per-cycle loop over a query.PerCycle module. In particular the verdict rows and the
// 3*II modulo images are slab storage reused across Reset, never
// reallocated per loop.
func TestArenaScanModesZeroAlloc(t *testing.T) {
	m := machines.Cydra5()
	loops, err := loopgen.GenerateStrata(m, loopgen.DefaultStrata(32))
	if err != nil {
		t.Fatal(err)
	}
	verdictFactory := reducedBitvecFactory(t, m.Expand())
	cfg := DefaultConfig()
	for _, tc := range []struct {
		name    string
		factory ModuleFactory
	}{
		{"verdict", verdictFactory},
		{"naive", perCycleFactory(verdictFactory)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewArena(tc.factory)
			var res Result
			for _, g := range loops {
				a.ScheduleInto(&res, g, m, cfg) // warmup: grow buffers, build modules
			}
			allocs := testing.AllocsPerRun(10, func() {
				for _, g := range loops {
					a.ScheduleInto(&res, g, m, cfg)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state %s ScheduleInto allocates %.1f times per corpus pass, want 0", tc.name, allocs)
			}
		})
	}
}
