package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/loopgen"
	"repro/internal/machines"
	"repro/internal/query"
	"repro/internal/resmodel"
	"repro/internal/sched"

	_ "repro/internal/automaton" // registers the "fsa" query backend
)

// This file generates the representation-crossover artifacts: the
// committed CROSSOVER.md frontier table (where does the
// forbidden-latency automaton beat the reduced reservation tables, and
// where do the tables win?) and the BENCH_repr.json wall-time report
// the bench-compare gate tracks. The frontier is measured with the same
// deterministic calibration query.Select uses for "auto", so the
// committed table IS the selection policy, rendered.

// crossMachine is one measured description.
type crossMachine struct {
	name string
	e    *resmodel.Expanded
}

// crossStratum groups machines measured under one policy (linear or
// modulo) and carries the invariant the stratum must exhibit: which
// backend is expected to win the majority of its machines ("" = no
// expectation; the real machines are reported, not asserted).
type crossStratum struct {
	name    string
	ii      int
	expect  string
	members []crossMachine
}

// genPipes builds a wide multipipeline machine: nOps pipelines, each op
// walking a private per-pipeline resource sequence for span cycles and
// then hitting one of `shared` writeback buses. This is the shape the
// paper's multipipeline machines idealize — and the FSA's sweet spot:
// a failing spot check hits the bus conflict in one forward-state
// lookup, while the reservation tables must scan past every private
// resource (sorted before the bus) or AND every packed word below it.
func genPipes(rng *rand.Rand, nOps, span, shared int) *resmodel.Machine {
	m := &resmodel.Machine{Name: "pipes"}
	nRes := nOps*span + shared
	for r := 0; r < nRes; r++ {
		m.Resources = append(m.Resources, fmt.Sprintf("r%d", r))
	}
	for o := 0; o < nOps; o++ {
		op := resmodel.Operation{Name: fmt.Sprintf("op%d", o), Latency: span + 1}
		var t resmodel.Table
		for c := 0; c < span; c++ {
			t.Uses = append(t.Uses, resmodel.Usage{Resource: o*span + c, Cycle: c})
		}
		t.Uses = append(t.Uses, resmodel.Usage{Resource: nOps*span + rng.Intn(shared), Cycle: span})
		t.Normalize()
		op.Alts = append(op.Alts, t)
		m.Ops = append(m.Ops, op)
	}
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return m
}

// genPipesAt cycles the wide-pipes stratum through three pipeline
// shapes (pipeline count x span, one shared bus) so the stratum spans a
// band of widths rather than one point.
func genPipesAt(rng *rand.Rand, i int) *resmodel.Machine {
	shapes := []struct{ nOps, span int }{{10, 3}, {12, 3}, {8, 4}}
	s := shapes[i%len(shapes)]
	return genPipes(rng, s.nOps, s.span, 1)
}

// genDense builds a small machine whose ops each place `uses` usages on
// random resources across cycles 0..span-1 — solid contention bands the
// reservation tables amortize well.
func genDense(rng *rand.Rand, nRes, nOps, span, uses int) *resmodel.Machine {
	m := &resmodel.Machine{Name: "dense"}
	for r := 0; r < nRes; r++ {
		m.Resources = append(m.Resources, fmt.Sprintf("r%d", r))
	}
	for o := 0; o < nOps; o++ {
		op := resmodel.Operation{Name: fmt.Sprintf("op%d", o), Latency: span + 1}
		var t resmodel.Table
		for u := 0; u < uses; u++ {
			t.Uses = append(t.Uses, resmodel.Usage{Resource: rng.Intn(nRes), Cycle: u % span})
		}
		t.Normalize()
		op.Alts = append(op.Alts, t)
		m.Ops = append(m.Ops, op)
	}
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return m
}

// reduceFor returns the 64-cycle-word reduction of m — the variant the
// scheduling stack ships.
func reduceFor(m *resmodel.Machine) (*resmodel.Expanded, error) {
	red := core.CachedReduce(m.Expand(), core.Objective{Kind: core.KCycleWord, K: 64})
	if err := red.Verify(); err != nil {
		return nil, err
	}
	return red.Reduced, nil
}

// crossoverStrata builds the full measurement set: the four real
// machines in both description variants, plus deterministic random
// strata spanning resource count x usage density, linear and modulo.
func crossoverStrata() ([]crossStratum, error) {
	real := func(use string) ([]crossMachine, error) {
		var out []crossMachine
		for _, name := range []string{"mips", "alpha", "cydra5", "parisc"} {
			m := machines.ByName(name)
			e := m.Expand()
			if use == "reduced" {
				var err error
				if e, err = reduceFor(m); err != nil {
					return nil, err
				}
			}
			out = append(out, crossMachine{name: name, e: e})
		}
		return out, nil
	}
	origs, err := real("original")
	if err != nil {
		return nil, err
	}
	reds, err := real("reduced")
	if err != nil {
		return nil, err
	}

	gen := func(seed int64, n int, f func(*rand.Rand, int) *resmodel.Machine) []crossMachine {
		rng := rand.New(rand.NewSource(seed))
		var out []crossMachine
		for i := 0; i < n; i++ {
			m := f(rng, i)
			out = append(out, crossMachine{name: fmt.Sprintf("%s%02d", m.Name, i), e: m.Expand()})
		}
		return out
	}
	const perStratum = 8
	return []crossStratum{
		{name: "real/original", ii: 0, members: origs},
		{name: "real/reduced", ii: 0, members: reds},
		{name: "small-sparse/linear", ii: 0, members: gen(101, perStratum,
			func(rng *rand.Rand, _ int) *resmodel.Machine { return genDense(rng, 6, 5, 4, 3) })},
		{name: "small-dense/linear", ii: 0, members: gen(102, perStratum,
			func(rng *rand.Rand, _ int) *resmodel.Machine { return genDense(rng, 8, 6, 4, 10) })},
		{name: "wide-pipes/linear", ii: 0, expect: "fsa", members: gen(103, perStratum, genPipesAt)},
		{name: "small-dense/modulo-ii8", ii: 8, expect: "bitvector", members: gen(104, perStratum,
			func(rng *rand.Rand, _ int) *resmodel.Machine { return genDense(rng, 8, 6, 4, 10) })},
		// Modulo keeps the 31-resource 10x3 shape: at 12x3 (37 res) or 8x4
		// (33 res) the packed word collapses to one cycle and the discrete
		// table wins instead — a frontier the linear stratum's mixed shapes
		// show but the asserted invariant should not straddle.
		{name: "wide-pipes/modulo-ii8", ii: 8, expect: "bitvector", members: gen(105, perStratum,
			func(rng *rand.Rand, _ int) *resmodel.Machine { return genPipes(rng, 10, 3, 1) })},
	}, nil
}

// fmtCost renders a calibration entry's cost column.
func fmtCost(bc *query.BackendCost) string {
	if bc == nil || !bc.Feasible {
		return "—"
	}
	return fmt.Sprintf("%.2f", bc.CostPerOp)
}

func fmtBytes(bc *query.BackendCost) string {
	if bc == nil || !bc.Feasible {
		return "—"
	}
	return fmt.Sprintf("%d", bc.StateBytes)
}

// runCrossover measures every stratum machine under query.Select's
// calibration and writes the CROSSOVER.md frontier table. Everything is
// deterministic — fixed machine seeds, a counted (never wall-clock)
// cost model — so regeneration on any host reproduces the committed
// bytes; the Makefile target enforces that with git diff. Before
// writing, the function enforces the frontier invariants the selection
// policy promises: the winner is never costlier than a feasible fixed
// backend, the FSA carries the wide-pipes linear stratum, and the
// bitvector carries the modulo strata.
func runCrossover(path string) error {
	strata, err := crossoverStrata()
	if err != nil {
		return err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# Representation crossover: automaton vs reduced reservation tables\n\n")
	fmt.Fprintf(&b, "Measured by `query.Select`'s deterministic calibration: every feasible\n")
	fmt.Fprintf(&b, "backend answers the same seeded probe trace (slot searches, assigns,\n")
	fmt.Fprintf(&b, "spot checks, frees) one cycle at a time through Check/CheckWithAlt and\n")
	fmt.Fprintf(&b, "is charged its own counted work per probe — the paper's Table 6 work\n")
	fmt.Fprintf(&b, "per check, one currency for every backend. `cost` is that ratio — lower\n")
	fmt.Fprintf(&b, "is better — and `winner` is what `\"representation\": \"auto\"` serves for\n")
	fmt.Fprintf(&b, "the machine; range queries then run on the winner's one scan engine.\n")
	fmt.Fprintf(&b, "Real machines appear in both description variants; random strata are\n")
	fmt.Fprintf(&b, "seeded, 8 machines each. `—` marks an infeasible backend (the FSA on\n")
	fmt.Fprintf(&b, "modulo tables, or past its %d-states-per-automaton budget).\n", query.DefaultMaxFSAStates)
	fmt.Fprintf(&b, "`fsa states` sums the interned forward and reverse automaton states\n")
	fmt.Fprintf(&b, "(each automaton is bounded separately); `bytes` is live reserved-state\n")
	fmt.Fprintf(&b, "storage per backend on the trace's partial schedule.\n\n")
	fmt.Fprintf(&b, "| stratum | machine | res | cost disc | cost bv | cost fsa | fsa states | bytes disc | bytes bv | bytes fsa | winner |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|---|---|---|---|---|\n")

	for _, st := range strata {
		wins := map[string]int{}
		for _, cm := range st.members {
			sel, err := query.Select(cm.e, query.Policy{Representation: "auto", II: st.ii})
			if err != nil {
				return fmt.Errorf("crossover: %s/%s: %v", st.name, cm.name, err)
			}
			cal := sel.Cal
			win := cal.Cost(sel.Backend)
			if win == nil || !win.Feasible {
				return fmt.Errorf("crossover: %s/%s: winner %q has no feasible entry", st.name, cm.name, sel.Backend)
			}
			for _, bc := range cal.Backends {
				if bc.Feasible && bc.CostPerOp < win.CostPerOp {
					return fmt.Errorf("crossover: %s/%s: winner %q cost %.3f beaten by %q at %.3f",
						st.name, cm.name, sel.Backend, win.CostPerOp, bc.Backend, bc.CostPerOp)
				}
			}
			wins[sel.Backend]++
			d, bv, fsa := cal.Cost("discrete"), cal.Cost("bitvector"), cal.Cost("fsa")
			states := "—"
			if fsa != nil && fsa.Feasible {
				states = fmt.Sprintf("%d", fsa.States)
			}
			fmt.Fprintf(&b, "| %s | %s | %d | %s | %s | %s | %s | %s | %s | %s | %s |\n",
				st.name, cm.name, len(cm.e.Resources),
				fmtCost(d), fmtCost(bv), fmtCost(fsa), states,
				fmtBytes(d), fmtBytes(bv), fmtBytes(fsa), sel.Backend)
		}
		if st.expect != "" && 2*wins[st.expect] <= len(st.members) {
			return fmt.Errorf("crossover: stratum %s: expected %q to win a majority, got wins %v",
				st.name, st.expect, wins)
		}
	}

	fmt.Fprintf(&b, "\nThe frontier in words: the bitvector wins wherever a few packed words\n")
	fmt.Fprintf(&b, "decide a probe (all real machines, dense strata, every modulo table —\n")
	fmt.Fprintf(&b, "where the FSA is structurally excluded). The FSA wins wide\n")
	fmt.Fprintf(&b, "multipipeline machines with a shared writeback bus: too many resources\n")
	fmt.Fprintf(&b, "to pack several cycles per word, and failing spot checks that one\n")
	fmt.Fprintf(&b, "forward-state lookup answers before the tables reach the bus row.\n")

	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d strata)\n", path, len(strata))
	return nil
}

// runBenchRepr writes BENCH_repr.json (benchReport schema): real
// scheduling wall time per query backend — the PA-RISC acyclic corpus
// through OperationDriven per backend, and the Cydra 5 modulo corpus
// through arenas for the backends that support modulo tables. serial_ns
// (the gated column) is the minimum of benchReps passes.
func runBenchRepr(path string) error {
	rep := benchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
	}

	// Acyclic: 200 PA-RISC basic blocks per backend.
	pm := machines.ByName("parisc")
	pe, err := reduceFor(pm)
	if err != nil {
		return err
	}
	dcfg := loopgen.DefaultDAG(pm)
	dcfg.Blocks = 200
	dags, err := loopgen.GenerateDAGs(pm, dcfg)
	if err != nil {
		return err
	}
	for _, backend := range []string{"discrete", "bitvector", "fsa"} {
		if _, err := query.Select(pe, query.Policy{Representation: backend}); err != nil {
			return fmt.Errorf("bench-repr: %s on parisc/reduced: %v", backend, err)
		}
		factory := func(ii int) query.Module {
			sel, err := query.Select(pe, query.Policy{Representation: backend, II: ii})
			if err != nil {
				panic(err)
			}
			return sel.Module
		}
		a := sched.NewArena(factory)
		pass := func() {
			for _, g := range dags {
				if _, err := a.OperationDriven(g, pe); err != nil {
					panic(err)
				}
			}
		}
		pass() // warm the arena
		var best int64
		for i := 0; i < benchReps; i++ {
			best = minNZ(best, timeIt(pass))
		}
		rep.Entries = append(rep.Entries, benchEntry{
			Name: "repr-parisc-acyclic-" + backend, Workers: 1, SerialNS: best,
			GoMaxProcs: rep.GoMaxProcs, NumCPU: rep.NumCPU,
		})
	}
	rep.Loops = len(dags)

	// Modulo: 200 stratified Cydra 5 loops per modulo-capable policy.
	cm := machines.Cydra5()
	ce, err := reduceFor(cm)
	if err != nil {
		return err
	}
	loops, err := loopgen.GenerateStrata(cm, loopgen.DefaultStrata(200))
	if err != nil {
		return err
	}
	cfg := sched.DefaultConfig()
	for _, backend := range []string{"discrete", "bitvector", "auto"} {
		b := backend
		factory := func(ii int) query.Module {
			sel, err := query.Select(ce, query.Policy{Representation: b, II: ii})
			if err != nil {
				panic(err)
			}
			return sel.Module
		}
		sched.ScheduleBatchArena(loops, cm, factory, cfg, 1) // warm caches
		var best int64
		for i := 0; i < benchReps; i++ {
			best = minNZ(best, timeIt(func() { sched.ScheduleBatchArena(loops, cm, factory, cfg, 1) }))
		}
		rep.Entries = append(rep.Entries, benchEntry{
			Name: "repr-cydra5-modulo-" + backend, Workers: 1, SerialNS: best,
			GoMaxProcs: rep.GoMaxProcs, NumCPU: rep.NumCPU,
		})
	}

	return writeBenchReport(path, &rep)
}

// writeBenchReport marshals a report the way every bench harness does
// and prints the per-entry summary lines.
func writeBenchReport(path string, rep *benchReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	for _, e := range rep.Entries {
		fmt.Fprintf(os.Stderr, "paper: bench-repr: %-28s %10.2fms\n", e.Name, float64(e.SerialNS)/1e6)
	}
	fmt.Printf("wrote %s (%d entries)\n", path, len(rep.Entries))
	return nil
}
