package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/loopgen"
	"repro/internal/machines"
	"repro/internal/sched"
	"repro/internal/serve"
)

// corpusDigest hashes a corpus's graphs.
func corpusDigest(gs []*ddg.Graph) uint64 {
	d := newDigest()
	for _, g := range gs {
		for _, n := range g.Nodes {
			d.ints(n.Op)
		}
		for _, e := range g.Edges {
			d.ints(e.From, e.To, e.Delay, e.Dist)
		}
	}
	return d.h
}

func imsDigest(t *testing.T, seed int64) (corpus, schedules uint64) {
	t.Helper()
	m := machines.Cydra5()
	loops, err := cydraCorpus(m, 300, seed)
	if err != nil {
		t.Fatal(err)
	}
	e, err := moduloSetup(m)()
	if err != nil {
		t.Fatal(err)
	}
	r := &result{}
	d, _, _ := verifyPass(r, sched.NewArena(moduloFactory(e)), newIMS(m), loops, m.Expand())
	if r.failed != 0 {
		t.Fatalf("check pass failed: %v", r.errs)
	}
	return corpusDigest(loops), d
}

func TestSeedDeterminesInputsAndDigest(t *testing.T) {
	c1, d1 := imsDigest(t, 7)
	c2, d2 := imsDigest(t, 7)
	if c1 != c2 || d1 != d2 {
		t.Fatalf("same seed: corpus %x/%x, schedules %x/%x", c1, c2, d1, d2)
	}
	c3, d3 := imsDigest(t, 8)
	if c3 == c1 || d3 == d1 {
		t.Fatalf("different seed gave the same corpus (%x) or schedules (%x)", c3, d3)
	}

	m := machines.ByName("parisc")
	blocks := func(seed int64) uint64 {
		cfg := loopgen.DefaultDAG(m)
		cfg.Seed, cfg.Blocks = seed, 200
		gs, err := loopgen.GenerateDAGs(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return corpusDigest(gs)
	}
	if blocks(7) != blocks(7) || blocks(7) == blocks(8) {
		t.Fatal("acyclic blocks do not follow the seed")
	}

	requests := func(seed int64) [][]byte {
		in, err := serveInputs(machines.Cydra5(), seed)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, list := range in.tasks {
			for _, task := range list {
				out = append(out, task.batch)
			}
		}
		return out
	}
	if !reflect.DeepEqual(requests(7), requests(7)) || reflect.DeepEqual(requests(7), requests(8)) {
		t.Fatal("mdserve requests do not follow the seed")
	}
}

// TestTimedModulesKeepSchedulerPaths pins the traced run's premise: the
// timing wrapper changes no schedule and no counter.
func TestTimedModulesKeepSchedulerPaths(t *testing.T) {
	m := machines.Cydra5()
	loops, err := cydraCorpus(m, 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	e, err := moduloSetup(m)()
	if err != nil {
		t.Fatal(err)
	}
	plain := sched.NewArena(moduloFactory(e))
	qt := &queryTrace{}
	timed := sched.NewArena(qt.factory(moduloFactory(e)))
	s := newIMS(m)
	if a, b := digestPass(plain, s, loops), digestPass(timed, s, loops); a != b {
		t.Fatalf("digest %x untraced, %x traced", a, b)
	}
	if a, b := plain.Counters(), timed.Counters(); a != b {
		t.Fatalf("counters differ:\n%+v\n%+v", a, b)
	}
	if qt.ops[opFirstFreeAlt].calls == 0 {
		t.Fatal("IMS issued no range queries through the wrapper")
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{{50, "p50"}, {100, "p90"}, {1000, "p99"}, {4000, "p99"}, {10000, "p99.9"}} {
		if _, got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %s, want %s", c.n, got, c.want)
		}
	}
}

// TestMetricsMatchBenchmarkJSON runs the cheapest workload both ways and
// checks that it reports exactly the metrics BENCHMARK.json declares,
// with the declared units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if lookup(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	for _, c := range []struct {
		traced bool
		want   []struct{ Name, Unit string }
	}{{false, b.EndToEnd}, {true, b.PerLayer}} {
		r, err := runAcyclic(options{seed: 1, seconds: 0.01}, c.traced)
		if err != nil {
			t.Fatal(err)
		}
		if r.failed != 0 {
			t.Fatalf("traced=%v: %v", c.traced, r.errs)
		}
		var got []struct{ Name, Unit string }
		for _, m := range r.metrics {
			got = append(got, struct{ Name, Unit string }{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("traced=%v: metrics\n%v\nwant (BENCHMARK.json)\n%v", c.traced, got, c.want)
		}
	}
}

// TestCheckBatchJudgesByOriginalDescription pins the mdserve batch
// oracle: a served schedule passes when it is valid on the original
// description at or above the original MII, whatever II the library
// would have chosen, and fails otherwise.
func TestCheckBatchJudgesByOriginalDescription(t *testing.T) {
	m := machines.Cydra5()
	orig := m.Expand()
	loops, err := cydraCorpus(m, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	red := core.NewCache().Reduce(orig, serveObjective, 1)
	a := sched.NewArena(serveFactory(red.Reduced))
	body := func(r sched.Result) []byte {
		b, err := json.Marshal(serve.BatchResponse{Results: []serve.BatchResult{{OK: &r.OK, II: &r.II, Times: r.Time, Alts: r.Alt}}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	checked := 0
	for _, g := range loops {
		want := a.Schedule(g, m, serveIMSConfig())
		onReduced := a.Schedule(g, red.Reduced.Machine(), serveIMSConfig())
		if !want.OK || !onReduced.OK || onReduced.II == want.II || len(g.Nodes) < 2 {
			continue
		}
		checked++
		task := &serveTask{loop: g, want: want}
		if err := checkBatch(body(onReduced), task, orig); err != nil {
			t.Fatalf("%s: valid schedule at II %d (library %d) refused: %v", g.Name, onReduced.II, want.II, err)
		}
		if err := checkBatch(body(want), task, orig); err == nil {
			t.Fatalf("%s: served II changed between passes but accepted", g.Name)
		}
		low := want
		low.II = want.MII - 1
		if err := checkBatch(body(low), &serveTask{loop: g, want: want}, orig); err == nil {
			t.Fatalf("%s: II below the original MII accepted", g.Name)
		}
		short := want
		short.Time = want.Time[:len(want.Time)-1]
		if err := checkBatch(body(short), &serveTask{loop: g, want: want}, orig); err == nil {
			t.Fatalf("%s: schedule missing a node accepted", g.Name)
		}
		foreign := want
		foreign.Alt = append([]int(nil), want.Alt...)
		for x := range orig.Ops {
			if orig.Ops[x].Orig != g.Nodes[0].Op {
				foreign.Alt[0] = x
				break
			}
		}
		if err := checkBatch(body(foreign), &serveTask{loop: g, want: want}, orig); err == nil {
			t.Fatalf("%s: node placed as another op's alternative accepted", g.Name)
		}
	}
	if checked == 0 {
		t.Fatal("no loop whose served II differs from the library's")
	}
}
