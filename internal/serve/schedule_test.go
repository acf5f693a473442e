package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/machines"
	"repro/internal/query"
	"repro/internal/resmodel"
	"repro/internal/sched"
)

// dotLoop is a small two-op recurrence used by the schedule-op tests:
// op 1 depends on op 0 in the same iteration, op 0 on op 1 one
// iteration back.
func dotLoop() *LoopSpec {
	return &LoopSpec{
		Ops: []int{0, 1},
		Edges: []LoopEdge{
			{From: 0, To: 1, Delay: 2},
			{From: 1, To: 0, Delay: 1, Dist: 1},
		},
	}
}

// TestBatchScheduleOp drives fn:"schedule" end to end on /v1/batch:
// the optimal engine returns a proven schedule whose times satisfy the
// dependences, the ims engine returns a schedule without optimality
// flags, and the reduced and original descriptions produce identical
// results (the paper's preservation theorem on the wire).
func TestBatchScheduleOp(t *testing.T) {
	s := New(Config{})
	if _, err := s.Register("ex", machines.Example(), core.Objective{Kind: core.ResUses}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	run := func(use string) []BatchResult {
		rec := post(t, h, "/v1/batch", BatchRequest{Machine: "ex", Use: use, Ops: []BatchOp{
			{Fn: "schedule", Loop: dotLoop()},
			{Fn: "schedule", Scheduler: "ims", Loop: dotLoop()},
		}})
		if rec.Code != http.StatusOK {
			t.Fatalf("use=%q: status %d: %s", use, rec.Code, rec.Body.String())
		}
		return decodeBody[BatchResponse](t, rec).Results
	}

	res := run("reduced")
	opt, ims := res[0], res[1]
	if opt.OK == nil || !*opt.OK || opt.II == nil || opt.MII == nil {
		t.Fatalf("optimal schedule incomplete: %+v", opt)
	}
	if opt.Proven == nil || opt.Fallback == nil || *opt.Proven == *opt.Fallback {
		t.Fatalf("want exactly one of proven/fallback: %+v", opt)
	}
	if *opt.II < *opt.MII {
		t.Fatalf("ii %d below mii %d", *opt.II, *opt.MII)
	}
	if len(opt.Times) != 2 || len(opt.Alts) != 2 {
		t.Fatalf("schedule shape: %+v", opt)
	}
	// The dependences of dotLoop at the achieved II.
	ii := *opt.II
	if opt.Times[1]-opt.Times[0] < 2 || opt.Times[0]-opt.Times[1] < 1-ii {
		t.Fatalf("schedule violates dependences at ii %d: times %v", ii, opt.Times)
	}
	if ims.OK == nil || !*ims.OK || ims.Proven != nil || ims.Fallback != nil {
		t.Fatalf("ims result shape: %+v", ims)
	}
	if *opt.Proven && *ims.II < *opt.II {
		t.Fatalf("proven optimal ii %d worse than ims ii %d", *opt.II, *ims.II)
	}

	// The reduced description preserves scheduling constraints, and the
	// MII of either use is the registered machine's, so both
	// descriptions produce the same schedule and bound.
	orig := run("original")
	if *orig[0].MII != *opt.MII {
		t.Fatalf("mii differs across descriptions: reduced %d, original %d", *opt.MII, *orig[0].MII)
	}
	if *orig[0].II != *opt.II || !reflect.DeepEqual(orig[0].Times, opt.Times) {
		t.Fatalf("optimal schedule differs across descriptions\nreduced:  %+v\noriginal: %+v", opt, orig[0])
	}
	if *orig[1].II != *ims.II {
		t.Fatalf("ims II differs across descriptions: reduced %d, original %d", *ims.II, *orig[1].II)
	}
}

// TestBatchScheduleValidation pins the pre-validation contract: every
// malformed schedule op is a 4xx before it can reach the scheduler.
func TestBatchScheduleValidation(t *testing.T) {
	s := New(Config{})
	if _, err := s.Register("ex", machines.Example(), core.Objective{Kind: core.ResUses}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	cases := []struct {
		name string
		op   BatchOp
	}{
		{"missing loop", BatchOp{Fn: "schedule"}},
		{"empty loop", BatchOp{Fn: "schedule", Loop: &LoopSpec{}}},
		{"too many ops", BatchOp{Fn: "schedule", Loop: &LoopSpec{Ops: make([]int, scheduleMaxLoopOps+1)}}},
		{"bad op index", BatchOp{Fn: "schedule", Loop: &LoopSpec{Ops: []int{9999}}}},
		{"negative op index", BatchOp{Fn: "schedule", Loop: &LoopSpec{Ops: []int{-1}}}},
		{"bad scheduler", BatchOp{Fn: "schedule", Scheduler: "greedy", Loop: &LoopSpec{Ops: []int{0}}}},
		{"edge endpoint", BatchOp{Fn: "schedule", Loop: &LoopSpec{Ops: []int{0}, Edges: []LoopEdge{{From: 0, To: 3}}}}},
		{"edge delay", BatchOp{Fn: "schedule", Loop: &LoopSpec{Ops: []int{0}, Edges: []LoopEdge{{From: 0, To: 0, Delay: 256, Dist: 1}}}}},
		{"edge dist", BatchOp{Fn: "schedule", Loop: &LoopSpec{Ops: []int{0}, Edges: []LoopEdge{{From: 0, To: 0, Delay: 1, Dist: 9}}}}},
		{"zero-dist cycle", BatchOp{Fn: "schedule", Loop: &LoopSpec{Ops: []int{0, 1}, Edges: []LoopEdge{
			{From: 0, To: 1, Delay: 1}, {From: 1, To: 0, Delay: 1}}}}},
		{"budget too large", BatchOp{Fn: "schedule", MaxNodes: scheduleMaxNodes + 1, Loop: &LoopSpec{Ops: []int{0}}}},
		{"negative budget", BatchOp{Fn: "schedule", MaxNodes: -1, Loop: &LoopSpec{Ops: []int{0}}}},
	}
	for _, tc := range cases {
		rec := post(t, h, "/v1/batch", BatchRequest{Machine: "ex", Ops: []BatchOp{tc.op}})
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, rec.Code, rec.Body.String())
		}
	}
}

// TestSessionScheduleOp runs schedule ops through a stateful session:
// results are identical across repeated requests (the session's
// scheduling arena is reused, never corrupted by the session's own
// partial MRT), and a schedule op leaves the session's module state
// untouched.
func TestSessionScheduleOp(t *testing.T) {
	s := New(Config{})
	if _, err := s.Register("ex", machines.Example(), core.Objective{Kind: core.ResUses}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	si := createSession(t, h, SessionRequest{Machine: "ex", II: 4})

	// Occupy the session's own MRT, then schedule: the schedule op must
	// see a fresh table, not the session's assignments.
	rec := post(t, h, "/v1/sessions/"+si.SessionID+"/ops", SessionOpsRequest{Ops: []BatchOp{
		{Fn: "assign", Op: 0, Cycle: 0, ID: 1},
		{Fn: "schedule", Loop: dotLoop()},
	}})
	if rec.Code != http.StatusOK {
		t.Fatalf("ops: status %d: %s", rec.Code, rec.Body.String())
	}
	first := decodeBody[SessionOpsResponse](t, rec).Results[1]
	if first.OK == nil || !*first.OK {
		t.Fatalf("schedule failed in session: %+v", first)
	}

	// The session's own assignment survives the schedule op.
	rec = post(t, h, "/v1/sessions/"+si.SessionID+"/ops", SessionOpsRequest{Ops: []BatchOp{
		{Fn: "check", Op: 0, Cycle: 0},
		{Fn: "schedule", Loop: dotLoop()},
	}})
	if rec.Code != http.StatusOK {
		t.Fatalf("ops: status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBody[SessionOpsResponse](t, rec)
	if resp.Results[0].OK == nil || *resp.Results[0].OK {
		t.Fatalf("session MRT state lost after schedule op: %+v", resp.Results[0])
	}
	if !reflect.DeepEqual(resp.Results[1], first) {
		t.Fatalf("schedule result drifted across requests\nfirst: %+v\nlater: %+v", first, resp.Results[1])
	}
}

// loopGraph is the dependence graph a schedule op's loop spec describes.
func loopGraph(spec *LoopSpec) *ddg.Graph {
	g := &ddg.Graph{Name: "serve", Nodes: make([]ddg.Node, len(spec.Ops))}
	for v, op := range spec.Ops {
		g.Nodes[v].Op = op
	}
	for _, ed := range spec.Edges {
		g.Edges = append(g.Edges, ddg.Edge{From: ed.From, To: ed.To, Delay: ed.Delay, Dist: ed.Dist})
	}
	return g
}

// TestScheduleMIIOnRegisteredMachine pins the schedule op's MII basis on
// Cydra 5, whose 45 original ops expand to 57: loop ops are original-op
// indices, so the served MII under either use is ddg's MII on the
// registered machine, and a proven schedule reaches it. Op i of the
// reduced description's machine is a different operation (a single
// alternative of some earlier op), whose resource bound is no lower
// bound of the loop.
func TestScheduleMIIOnRegisteredMachine(t *testing.T) {
	s := New(Config{})
	if _, err := s.Register("cydra5", machines.Cydra5(), core.Objective{Kind: core.ResUses}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	me := s.lookup("cydra5")

	// Five stores (op 4, st.w, two alternatives) fed by an address add
	// (op 8, two alternatives) that recurs across iterations.
	spec := &LoopSpec{
		Ops: []int{8, 4, 4, 4, 4, 4},
		Edges: []LoopEdge{
			{From: 0, To: 1, Delay: 1}, {From: 0, To: 2, Delay: 1}, {From: 0, To: 3, Delay: 1},
			{From: 0, To: 4, Delay: 1}, {From: 0, To: 5, Delay: 1}, {From: 0, To: 0, Delay: 1, Dist: 1},
		},
	}
	g := loopGraph(spec)
	want := g.MII(ddg.MachineUsage{M: machines.Cydra5()})
	if old := g.MII(ddg.MachineUsage{M: me.red.Reduced.Machine()}); old == want {
		t.Fatalf("loop no longer tells the two MII bases apart (both %d)", want)
	}

	for _, use := range []string{"reduced", "original"} {
		rec := post(t, h, "/v1/batch", BatchRequest{Machine: "cydra5", Use: use, Ops: []BatchOp{
			{Fn: "schedule", Loop: spec},
			{Fn: "schedule", Scheduler: "ims", Loop: spec},
		}})
		if rec.Code != http.StatusOK {
			t.Fatalf("use=%s: status %d: %s", use, rec.Code, rec.Body.String())
		}
		for k, r := range decodeBody[BatchResponse](t, rec).Results {
			if r.MII == nil || *r.MII != want {
				t.Fatalf("use=%s result %d: served mii %v, want the registered machine's %d", use, k, r.MII, want)
			}
			if r.OK == nil || !*r.OK || r.II == nil {
				t.Fatalf("use=%s result %d: not scheduled: %+v", use, k, r)
			}
			if r.Proven != nil && *r.Proven && *r.II != *r.MII {
				t.Fatalf("use=%s result %d: proven at ii %d above mii %d", use, k, *r.II, *r.MII)
			}
			if err := sched.VerifySchedule(g, me.expanded, sched.Result{OK: true, II: *r.II, Time: r.Times, Alt: r.Alts}); err != nil {
				t.Fatalf("use=%s result %d: %v", use, k, err)
			}
		}
	}
}

// randomLoop is a schedule op's loop of n nodes drawn from numOps
// original ops: a random forward dependence tree plus one recurrence.
func randomLoop(rng *rand.Rand, numOps, n int) *LoopSpec {
	spec := &LoopSpec{}
	for v := 0; v < n; v++ {
		spec.Ops = append(spec.Ops, rng.Intn(numOps))
		if v > 0 {
			spec.Edges = append(spec.Edges, LoopEdge{From: rng.Intn(v), To: v, Delay: rng.Intn(4)})
		}
	}
	spec.Edges = append(spec.Edges, LoopEdge{From: n - 1, To: 0, Delay: 1 + rng.Intn(3), Dist: 1 + rng.Intn(2)})
	return spec
}

// TestPooledScheduleArenasInvisible pins that batch schedule ops borrow
// the machine's pooled arenas invisibly: two goroutines send
// interleaved batches of schedule ops of different loop sizes,
// schedulers, representations and uses, so arenas pass between requests
// and goroutines, and every answer must be byte-identical to the same
// schedule computed by a library call on a fresh arena.
func TestPooledScheduleArenasInvisible(t *testing.T) {
	s := New(Config{})
	if _, err := s.Register("cydra5", machines.Cydra5(), core.Objective{Kind: core.ResUses}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	me := s.lookup("cydra5")

	type batch struct {
		req  BatchRequest
		want []byte // the results array a fresh arena produces
	}
	rng := rand.New(rand.NewSource(5))
	var batches [2][]batch
	for w := range batches {
		for b := 0; b < 12; b++ {
			req := BatchRequest{Machine: "cydra5",
				Use:            []string{"reduced", "original"}[rng.Intn(2)],
				Representation: []string{"discrete", "bitvector"}[rng.Intn(2)]}
			e := me.expandedFor(req.Use)
			var want []BatchResult
			for k := 1 + rng.Intn(3); k > 0; k-- {
				op := BatchOp{Fn: "schedule", Loop: randomLoop(rng, len(me.src.Ops), 1+rng.Intn(10))}
				if rng.Intn(2) == 0 {
					op.Scheduler = "ims"
				} else {
					op.MaxNodes = 256
				}
				req.Ops = append(req.Ops, op)
				want = append(want, freshArenaResult(e, me.src, req.Representation, &op))
			}
			raw, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			batches[w] = append(batches[w], batch{req, raw})
		}
	}

	var wg sync.WaitGroup
	for w := range batches {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b, bt := range batches[w] {
				body, _ := json.Marshal(bt.req)
				rec := post(t, h, "/v1/batch", body)
				if rec.Code != http.StatusOK {
					t.Errorf("client %d batch %d: status %d: %s", w, b, rec.Code, rec.Body.String())
					return
				}
				var got struct {
					Results json.RawMessage `json:"results"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
					t.Errorf("client %d batch %d: %v", w, b, err)
					return
				}
				if !bytes.Equal(got.Results, bt.want) {
					t.Errorf("client %d batch %d (%s, %s): pooled-arena answer differs from a fresh arena\nserved: %s\nfresh:  %s",
						w, b, bt.req.Use, bt.req.Representation, got.Results, bt.want)
				}
			}
		}(w)
	}
	wg.Wait()
}

// freshArenaResult is the answer to one schedule op computed by the
// library on a fresh arena, with the server's scheduler configuration.
func freshArenaResult(e *resmodel.Expanded, m *resmodel.Machine, rep string, op *BatchOp) BatchResult {
	a := sched.NewArena(func(ii int) query.Module {
		sel, err := query.Select(e, query.Policy{Representation: rep, II: ii})
		if err != nil {
			panic(fmt.Sprintf("select %s at ii %d: %v", rep, ii, err))
		}
		return sel.Module
	})
	g := loopGraph(op.Loop)
	var r sched.Result
	out := BatchResult{}
	if op.Scheduler == "ims" {
		cfg := sched.DefaultConfig()
		cfg.MaxII = scheduleMaxII
		r = a.Schedule(g, m, cfg)
	} else {
		cfg := sched.DefaultOptimalConfig()
		cfg.MaxNodes = op.MaxNodes
		if cfg.MaxNodes == 0 {
			cfg.MaxNodes = scheduleDefaultNodes
		}
		cfg.MaxII = scheduleMaxII
		opt := a.Optimal(g, m, cfg)
		r = opt.Result
		out.Proven, out.Fallback = &opt.Proven, &opt.Fallback
	}
	out.OK, out.MII = &r.OK, &r.MII
	if r.OK {
		out.II, out.Times, out.Alts = &r.II, r.Time, r.Alt
	}
	return out
}
