package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/ddg"
	"repro/internal/loopgen"
	"repro/internal/machines"
	"repro/internal/query"
	"repro/internal/resmodel"
	"repro/internal/sched"
)

const (
	// imsLoops is the ims-cydra5 corpus: large enough that mean II and
	// the p99 latency (the 80 slowest loops) move little between seeds,
	// small enough that a run makes tens of passes over it.
	imsLoops = 8000
	// optimalLoops is the optimal-cydra5 corpus (a pass takes seconds:
	// the few loops whose search exhausts the node budget dominate).
	optimalLoops = 100
	// optimalShadowLoops is the corpus prefix the ims-cydra5 traced run
	// also schedules with sched.Optimal, so the exact searcher's layer
	// is attributed on a workload the benchmark contract keeps.
	optimalShadowLoops = 60
)

// moduloPolicy is the query policy of both Cydra 5 workloads: the
// reduced description in 64-bit words, packed as densely as it fits.
var moduloPolicy = query.Policy{Representation: "bitvector"}

// cydraCorpus generates the seeded stratified Cydra 5 corpus.
func cydraCorpus(m *resmodel.Machine, loops int, seed int64) ([]*ddg.Graph, error) {
	st := loopgen.DefaultStrata(loops)
	st.Seed = seed
	return loopgen.GenerateStrata(m, st)
}

// moduloFactory builds modules of the reduced description e per II.
func moduloFactory(e *resmodel.Expanded) sched.ModuleFactory { return repFactory(e, moduloPolicy) }

// repFactory builds modules of e per II under pol.
func repFactory(e *resmodel.Expanded, pol query.Policy) sched.ModuleFactory {
	return func(ii int) query.Module {
		p := pol
		p.II = ii
		sel, err := query.Select(e, p)
		if err != nil {
			panic(fmt.Sprintf("perfbench: select at II %d: %v", ii, err))
		}
		return sel.Module
	}
}

// moduloSetup is the cold set-up of a Cydra 5 workload: reduce, verify,
// and select the first module.
func moduloSetup(m *resmodel.Machine) func() (*resmodel.Expanded, error) {
	return func() (*resmodel.Expanded, error) {
		red, err := reduce(m)
		if err != nil {
			return nil, err
		}
		p := moduloPolicy
		p.II = 1
		if _, err := query.Select(red.Reduced, p); err != nil {
			return nil, err
		}
		return red.Reduced, nil
	}
}

// moduloOutcome is one loop's answer from either scheduler.
type moduloOutcome struct {
	res      *sched.Result
	proven   bool
	fallback bool
	nodes    int64
}

// moduloSolver schedules loops through one arena and reports each
// outcome; its result buffers are reused between calls.
type moduloSolver interface {
	solve(a *sched.Arena, g *ddg.Graph) moduloOutcome
}

type imsSolver struct {
	m   *resmodel.Machine
	cfg sched.Config
	res sched.Result
}

func (s *imsSolver) solve(a *sched.Arena, g *ddg.Graph) moduloOutcome {
	a.ScheduleInto(&s.res, g, s.m, s.cfg)
	return moduloOutcome{res: &s.res, proven: s.res.OK && s.res.II == s.res.MII}
}

type optimalSolver struct {
	m   *resmodel.Machine
	cfg sched.OptimalConfig
	res sched.OptimalResult
}

func (s *optimalSolver) solve(a *sched.Arena, g *ddg.Graph) moduloOutcome {
	a.OptimalInto(&s.res, g, s.m, s.cfg)
	return moduloOutcome{res: &s.res.Result, proven: s.res.Proven, fallback: s.res.Fallback, nodes: s.res.Nodes}
}

func newIMS(m *resmodel.Machine) moduloSolver { return &imsSolver{m: m, cfg: sched.DefaultConfig()} }

func newOptimal(m *resmodel.Machine) moduloSolver {
	return &optimalSolver{m: m, cfg: sched.DefaultOptimalConfig()}
}

// verifyPass schedules every loop once, checks each schedule against
// the original (unreduced) description with sched.VerifySchedule, and
// returns the digest, mean II and proven share.
func verifyPass(r *result, a *sched.Arena, s moduloSolver, loops []*ddg.Graph, orig *resmodel.Expanded) (d uint64, meanII, proven float64) {
	dg := newDigest()
	var sumII, nProven int
	for _, g := range loops {
		out := s.solve(a, g)
		res := out.res
		dg.schedule(res.II, res.MII, res.Time, res.Alt)
		if !res.OK {
			r.fail("%s: not scheduled", g.Name)
			continue
		}
		if err := sched.VerifySchedule(g, orig, *res); err != nil {
			r.fail("%s: %v", g.Name, err)
		}
		sumII += res.II
		if out.proven {
			nProven++
		}
	}
	n := float64(len(loops))
	return dg.h, float64(sumII) / n, float64(nProven) / n
}

// digestPass reschedules every loop and returns the digest only.
func digestPass(a *sched.Arena, s moduloSolver, loops []*ddg.Graph) uint64 {
	dg := newDigest()
	for _, g := range loops {
		res := s.solve(a, g).res
		dg.schedule(res.II, res.MII, res.Time, res.Alt)
	}
	return dg.h
}

func runIMS(o options, traced bool) (*result, error) {
	return runModulo(o, traced, imsLoops, newIMS)
}

func runOptimal(o options, traced bool) (*result, error) {
	return runModulo(o, traced, optimalLoops, newOptimal)
}

func runModulo(o options, traced bool, n int, newSolver func(*resmodel.Machine) moduloSolver) (*result, error) {
	m := machines.Cydra5()
	t0 := time.Now()
	loops, err := cydraCorpus(m, n, o.seed)
	if err != nil {
		return nil, err
	}
	genMS := 1e3 * time.Since(t0).Seconds()
	if traced {
		return tracedModulo(o, m, loops, genMS, newSolver)
	}

	r := &result{attempted: len(loops)}
	heap0 := liveHeap()
	e, err := moduloSetup(m)()
	if err != nil {
		return nil, err
	}
	a := sched.NewArena(moduloFactory(e))
	s := newSolver(m)
	d0, meanII, proven := verifyPass(r, a, s, loops, m.Expand())
	// The arena is the program state the run builds, complete after one
	// pass; the inputs were live before set-up too, so they cancel out.
	// It is read before the timed set-ups, whose products the query
	// layer's process-wide caches keep.
	retained := retainedMB(heap0)
	st := newSetupTimer(moduloSetup(m))
	pt := measure(o.seconds, len(loops), st, func(i int) { s.solve(a, loops[i]) })
	if st.err != nil {
		return nil, st.err
	}
	if d := digestPass(a, s, loops); d != d0 {
		r.fail("schedules changed between passes (digest %x, then %x)", d0, d)
	}
	r.note("corpus %d loops, seed %d, digest %016x", len(loops), o.seed, d0)

	endToEnd(r, st, sequentialThroughput(pt), latencyOf(pt.minLat, "per-problem fastest times"), pt.walls)
	r.add("code_cycles", meanII, "cycles")
	r.add("proven_frac", proven, "frac")
	r.add("retained_heap_mb", retained, "MiB")
	runtime.KeepAlive([]any{a, s, loops})
	return r, nil
}

// tracedModulo is the traced run of a Cydra 5 workload. An untraced
// reference pass and a pass through timed query modules must produce
// the same schedule digest and the same summed query counters; the
// traced pass then splits each loop's time into query, MII and
// scheduler self time.
func tracedModulo(o options, m *resmodel.Machine, loops []*ddg.Graph, genMS float64, newSolver func(*resmodel.Machine) moduloSolver) (*result, error) {
	r := &result{attempted: len(loops)}
	l := layers{}
	l.set("loopgen.gen_ms", genMS)
	e, err := l.tracedSetup(m, query.Policy{Representation: moduloPolicy.Representation, II: 1})
	if err != nil {
		return nil, err
	}
	orig := m.Expand()
	n := len(loops)

	// Untraced reference: the verified first pass gives the digest and
	// counters; the second, warm pass gives wall time and allocations.
	ref := sched.NewArena(moduloFactory(e))
	s := newSolver(m)
	refDigest, _, _ := verifyPass(r, ref, s, loops, orig)
	refCounters := ref.Counters()
	a0 := readAllocs()
	t0 := time.Now()
	for _, g := range loops {
		s.solve(ref, g)
	}
	refWall := time.Since(t0).Seconds()
	l.addRuntime(a0, n)

	qt := &queryTrace{}
	tr := sched.NewArena(qt.factory(moduloFactory(e)))
	if d := digestPass(tr, s, loops); d != refDigest {
		r.fail("traced schedules differ from untraced (digest %x vs %x)", d, refDigest)
	}
	if c := tr.Counters(); c != refCounters {
		r.fail("traced query counters differ from untraced:\n  traced   %+v\n  untraced %+v", c, refCounters)
	}

	// The measured traced pass: the modules are warm, as in the
	// reference's second pass.
	qt.ops = [numOps]opStat{}
	var mii ddg.MIIScratch
	usage := ddg.MachineUsage{M: m}
	var problemNS, miiNS, decisions, attempts, nodes float64
	var optNodes int64
	var fallbacks int
	t0 = time.Now()
	for _, g := range loops {
		p0 := time.Now()
		out := s.solve(tr, g)
		problemNS += float64(time.Since(p0).Nanoseconds())
		m0 := time.Now()
		mii.MII(g, usage)
		miiNS += float64(time.Since(m0).Nanoseconds())
		decisions += float64(out.res.Decisions)
		attempts += float64(out.res.Attempts)
		nodes += float64(len(g.Nodes))
		optNodes += out.nodes
		if out.fallback {
			fallbacks++
		}
	}
	// The MII re-run is the ddg layer's timing, not tracing overhead.
	wall := time.Since(t0).Seconds() - miiNS/1e9
	l.addQuery(qt, n, problemNS)
	l.set("ddg.mii_ns", miiNS/float64(n))
	l.set("sched.self_ns", (problemNS-float64(qt.totalNS())-miiNS)/float64(n))
	l.set("sched.ims.decisions", decisions/float64(n))
	l.set("sched.ims.attempts", attempts/float64(n))
	l.set("sched.ims.useful_ratio", ratio(nodes, decisions))
	l.set("trace.overhead_frac", wall/refWall)

	// sched.optimal.*: this pass itself on optimal-cydra5; on ims-cydra5
	// the exact searcher over a corpus prefix.
	optLoops, optNS := n, problemNS
	if _, isIMS := s.(*imsSolver); isIMS {
		shadow := loops[:min(optimalShadowLoops, n)]
		opt := newOptimal(m)
		oa := sched.NewArena(moduloFactory(e))
		optLoops, optNS, optNodes, fallbacks = len(shadow), 0, 0, 0
		for _, g := range shadow {
			p0 := time.Now()
			out := opt.solve(oa, g)
			optNS += float64(time.Since(p0).Nanoseconds())
			optNodes += out.nodes
			if out.fallback {
				fallbacks++
			}
			if err := sched.VerifySchedule(g, orig, *out.res); err != nil {
				r.fail("optimal %s: %v", g.Name, err)
			}
		}
	}
	l.set("sched.optimal.nodes", float64(optNodes)/float64(optLoops))
	l.set("sched.optimal.ns_per_node", ratio(optNS, float64(optNodes)))
	l.set("sched.optimal.fallback_frac", float64(fallbacks)/float64(optLoops))
	r.note("traced %d loops: query %.1f%% of problem time, overhead x%.2f",
		len(loops), 100*float64(qt.totalNS())/problemNS, wall/refWall)
	l.into(r)
	return r, nil
}
