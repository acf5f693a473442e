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

// acyclicBlocks is the acyclic-parisc corpus. Blocks are short (about
// 24 ops), so a pass takes tens of milliseconds and a run makes many.
const acyclicBlocks = 5000

// acyclicBackends are the fixed backends the traced run times as
// shadows of the auto-selected one.
var acyclicBackends = []string{"discrete", "bitvector", "fsa"}

func linearFactory(e *resmodel.Expanded, rep string) sched.ModuleFactory {
	return func(ii int) query.Module {
		sel, err := query.Select(e, query.Policy{Representation: rep, II: ii})
		if err != nil {
			panic(fmt.Sprintf("perfbench: select %s: %v", rep, err))
		}
		return sel.Module
	}
}

// acyclicSetup reduces PA-RISC and runs the auto policy's calibration.
func acyclicSetup(m *resmodel.Machine) func() (*resmodel.Expanded, error) {
	return func() (*resmodel.Expanded, error) {
		red, err := reduce(m)
		if err != nil {
			return nil, err
		}
		if _, err := query.Select(red.Reduced, query.Policy{Representation: "auto"}); err != nil {
			return nil, err
		}
		return red.Reduced, nil
	}
}

// blockSolver list-schedules blocks through one arena.
type blockSolver struct {
	a   *sched.Arena
	e   *resmodel.Expanded
	res sched.ListResult
}

func (s *blockSolver) solve(g *ddg.Graph) (*sched.ListResult, error) {
	err := s.a.OperationDrivenInto(&s.res, g, s.e)
	return &s.res, err
}

func (s *blockSolver) digest(blocks []*ddg.Graph) (uint64, error) {
	dg := newDigest()
	for _, g := range blocks {
		res, err := s.solve(g)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", g.Name, err)
		}
		dg.schedule(res.Makespan, 0, res.Time, res.Alt)
	}
	return dg.h, nil
}

// replayBlock checks one acyclic schedule against the original
// (unreduced) description: every dependence holds and the operations,
// placed in time order on a fresh discrete module, never contend. It
// returns the block's makespan lower bound (longest dependence path
// plus the shortest latency of the op that ends it).
func replayBlock(g *ddg.Graph, orig *resmodel.Expanded, res *sched.ListResult) (int, error) {
	for _, ed := range g.Edges {
		if res.Time[ed.To] < res.Time[ed.From]+ed.Delay {
			return 0, fmt.Errorf("dependence %d->%d violated", ed.From, ed.To)
		}
	}
	mod := query.NewDiscrete(orig, 0)
	placed := make([]bool, len(g.Nodes))
	for range g.Nodes {
		v := -1
		for u := range g.Nodes {
			if !placed[u] && (v < 0 || res.Time[u] < res.Time[v]) {
				v = u
			}
		}
		placed[v] = true
		alt := res.Alt[v]
		if orig.Ops[alt].Orig != g.Nodes[v].Op {
			return 0, fmt.Errorf("node %d placed as op %d, not an alternative of %d", v, alt, g.Nodes[v].Op)
		}
		if !mod.Check(alt, res.Time[v]) {
			return 0, fmt.Errorf("node %d contends at cycle %d on the original description", v, res.Time[v])
		}
		mod.Assign(alt, res.Time[v], v)
	}
	// Longest dependence path, relaxed to a fixpoint (blocks are
	// acyclic, so it terminates).
	est := make([]int, len(g.Nodes))
	for changed := true; changed; {
		changed = false
		for _, ed := range g.Edges {
			if t := est[ed.From] + ed.Delay; t > est[ed.To] {
				est[ed.To], changed = t, true
			}
		}
	}
	lb := 0
	for v, n := range g.Nodes {
		lat := -1
		for _, alt := range orig.AltGroup[n.Op] {
			if l := orig.Ops[alt].Latency; lat < 0 || l < lat {
				lat = l
			}
		}
		lb = max(lb, est[v]+lat)
	}
	return lb, nil
}

func runAcyclic(o options, traced bool) (*result, error) {
	m := machines.ByName("parisc")
	t0 := time.Now()
	cfg := loopgen.DefaultDAG(m)
	cfg.Seed = o.seed
	cfg.Blocks = acyclicBlocks
	blocks, err := loopgen.GenerateDAGs(m, cfg)
	if err != nil {
		return nil, err
	}
	genMS := 1e3 * time.Since(t0).Seconds()
	orig := m.Expand()
	if traced {
		return tracedAcyclic(m, orig, blocks, genMS)
	}

	r := &result{attempted: len(blocks)}
	heap0 := liveHeap()
	e, err := acyclicSetup(m)()
	if err != nil {
		return nil, err
	}
	s := &blockSolver{a: sched.NewArena(linearFactory(e, "auto")), e: e}
	dg := newDigest()
	var sumMakespan, nProven int
	for _, g := range blocks {
		res, err := s.solve(g)
		if err != nil {
			r.fail("%s: %v", g.Name, err)
			continue
		}
		dg.schedule(res.Makespan, 0, res.Time, res.Alt)
		lb, err := replayBlock(g, orig, res)
		if err != nil {
			r.fail("%s: %v", g.Name, err)
			continue
		}
		sumMakespan += res.Makespan
		if res.Makespan == lb {
			nProven++
		}
	}
	// The arena is the program state the run builds, complete after one
	// pass; the inputs were live before set-up too, so they cancel out.
	// It is read before the timed set-ups, whose products the query
	// layer's process-wide caches keep.
	retained := retainedMB(heap0)
	st := newSetupTimer(acyclicSetup(m))
	pt := measure(o.seconds, len(blocks), st, func(i int) { s.solve(blocks[i]) })
	if st.err != nil {
		return nil, st.err
	}
	if d, err := s.digest(blocks); err != nil || d != dg.h {
		r.fail("schedules changed between passes (digest %x, then %x, %v)", dg.h, d, err)
	}
	r.note("corpus %d blocks, seed %d, digest %016x", len(blocks), o.seed, dg.h)

	endToEnd(r, st, sequentialThroughput(pt), latencyOf(pt.minLat, "per-problem fastest times"), pt.walls)
	r.add("code_cycles", float64(sumMakespan)/float64(len(blocks)), "cycles")
	r.add("proven_frac", float64(nProven)/float64(len(blocks)), "frac")
	r.add("retained_heap_mb", retained, "MiB")
	runtime.KeepAlive([]any{s, blocks})
	return r, nil
}

// tracedAcyclic is the traced run of acyclic-parisc: the auto-selected
// backend through timed modules (checked against an untraced reference
// for identical schedules and counters), then shadow runs over the same
// blocks with each fixed backend, which must schedule identically.
func tracedAcyclic(m *resmodel.Machine, orig *resmodel.Expanded, blocks []*ddg.Graph, genMS float64) (*result, error) {
	r := &result{attempted: len(blocks)}
	l := layers{}
	l.set("loopgen.gen_ms", genMS)
	e, err := l.tracedSetup(m, query.Policy{Representation: "auto"})
	if err != nil {
		return nil, err
	}
	n := len(blocks)

	ref := &blockSolver{a: sched.NewArena(linearFactory(e, "auto")), e: e}
	refDigest, err := ref.digest(blocks)
	if err != nil {
		return nil, err
	}
	refCounters := ref.a.Counters()
	a0 := readAllocs()
	t0 := time.Now()
	ref.digest(blocks)
	refWall := time.Since(t0).Seconds()
	l.addRuntime(a0, n)

	qt := &queryTrace{}
	tr := &blockSolver{a: sched.NewArena(qt.factory(linearFactory(e, "auto"))), e: e}
	if d, err := tr.digest(blocks); err != nil || d != refDigest {
		r.fail("traced schedules differ from untraced (digest %x vs %x, %v)", d, refDigest, err)
	}
	if c := tr.a.Counters(); c != refCounters {
		r.fail("traced query counters differ from untraced:\n  traced   %+v\n  untraced %+v", c, refCounters)
	}
	qt.ops = [numOps]opStat{}
	var problemNS float64
	t0 = time.Now()
	for _, g := range blocks {
		p0 := time.Now()
		tr.solve(g)
		problemNS += float64(time.Since(p0).Nanoseconds())
	}
	wall := time.Since(t0).Seconds()
	l.addQuery(qt, n, problemNS)
	l.set("sched.self_ns", (problemNS-float64(qt.totalNS()))/float64(n))
	l.set("trace.overhead_frac", wall/refWall)

	for _, rep := range acyclicBackends {
		s := &blockSolver{a: sched.NewArena(linearFactory(e, rep)), e: e}
		d, err := s.digest(blocks) // warm
		if err != nil || d != refDigest {
			r.fail("backend %s schedules differ from auto (digest %x vs %x, %v)", rep, d, refDigest, err)
		}
		t0 := time.Now()
		s.digest(blocks)
		l.set("query.backend."+rep+".ns_per_block", float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	sel, err := query.Select(e, query.Policy{Representation: "auto"})
	if err != nil {
		return nil, err
	}
	r.note("auto selected %s; traced %d blocks: query %.1f%% of problem time, overhead x%.2f",
		sel.Backend, n, 100*float64(qt.totalNS())/problemNS, wall/refWall)
	l.into(r)
	return r, nil
}
