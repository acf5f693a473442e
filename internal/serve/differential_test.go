package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/machines"
	"repro/internal/mdl"
	"repro/internal/query"
	"repro/internal/resmodel"
	"repro/internal/sched"
)

// batchCase is one differential configuration: a representation over a
// description variant, linear or modulo.
type batchCase struct {
	use            string // "original" | "reduced"
	representation string // "discrete" | "bitvector" | "fsa" | "auto"
	ii             int
}

// localModule builds the same module execBatch would for the case,
// through the same selection chokepoint. A nil return means the pinned
// backend cannot serve this description (the FSA over its state budget
// on a random machine); callers skip the case, mirroring the server's
// 400.
func localModule(t *testing.T, e *resmodel.Expanded, c batchCase) query.Module {
	t.Helper()
	sel, err := query.Select(e, query.Policy{Representation: c.representation, II: c.ii})
	if err != nil {
		return nil
	}
	return sel.Module
}

// genSequence generates a random query sequence that is valid under the
// batch executor's rules, using a throwaway probe module to track state
// (probe calls that lead to skipped candidates never reach the wire, so
// expectations must come from replayOps, not from the probe). assignFree
// selects the assign&free style (the paper's either/or usage contract
// per partial schedule).
func genSequence(rng *rand.Rand, e *resmodel.Expanded, probe query.Module, ii int, assignFree bool, steps int) []BatchOp {
	var ops []BatchOp
	live := map[int]struct{ op, cycle int }{}
	nextID := 1
	cycleFor := func() int {
		if ii > 0 {
			return rng.Intn(3 * ii)
		}
		return rng.Intn(14)
	}
	rangeFor := func() (int, int) {
		if ii > 0 {
			lo := rng.Intn(6*ii) - 3*ii
			return lo, lo + rng.Intn(3*ii+5)
		}
		lo := rng.Intn(16)
		return lo, lo + rng.Intn(25)
	}
	for s := 0; s < steps; s++ {
		switch r := rng.Intn(12); {
		case r < 3: // check
			ops = append(ops, BatchOp{Fn: "check", Op: rng.Intn(len(e.Ops)), Cycle: cycleFor()})
		case r < 5: // check_with_alt
			ops = append(ops, BatchOp{Fn: "check_with_alt", Op: rng.Intn(len(e.AltGroup)), Cycle: cycleFor()})
		case r < 6: // first_free
			lo, hi := rangeFor()
			ops = append(ops, BatchOp{Fn: "first_free", Op: rng.Intn(len(e.Ops)), Lo: lo, Hi: hi})
		case r < 7: // first_free_alt
			lo, hi := rangeFor()
			ops = append(ops, BatchOp{Fn: "first_free_alt", Op: rng.Intn(len(e.AltGroup)), Lo: lo, Hi: hi})
		case r < 11: // place an op
			op, cyc := rng.Intn(len(e.Ops)), cycleFor()
			if assignFree {
				if !probe.Schedulable(op) {
					continue
				}
				for _, id := range probe.AssignFree(op, cyc, nextID) {
					delete(live, id)
				}
				ops = append(ops, BatchOp{Fn: "assign_free", Op: op, Cycle: cyc, ID: nextID})
				live[nextID] = struct{ op, cycle int }{op, cyc}
				nextID++
				continue
			}
			if !probe.Check(op, cyc) {
				continue
			}
			probe.Assign(op, cyc, nextID)
			ops = append(ops, BatchOp{Fn: "assign", Op: op, Cycle: cyc, ID: nextID})
			live[nextID] = struct{ op, cycle int }{op, cyc}
			nextID++
		default: // free a random live instance
			for id, in := range live {
				probe.Free(in.op, in.cycle, id)
				ops = append(ops, BatchOp{Fn: "free", Op: in.op, Cycle: in.cycle, ID: id})
				delete(live, id)
				break
			}
		}
	}
	return ops
}

// replayOps executes ops on a fresh in-process module with exactly the
// batch executor's call pattern (assign re-checks before assigning,
// assign_free re-probes schedulability, evicted lists are copied), so
// both results and work counters are directly comparable to the served
// response. A module without range support (query.PerCycle) answers the
// range ops through the per-cycle reference loops.
func replayOps(mod query.Module, ops []BatchOp) []BatchResult {
	results := make([]BatchResult, 0, len(ops))
	for _, op := range ops {
		switch op.Fn {
		case "check":
			ok := mod.Check(op.Op, op.Cycle)
			results = append(results, BatchResult{OK: &ok})
		case "check_with_alt":
			alt, ok := mod.CheckWithAlt(op.Op, op.Cycle)
			res := BatchResult{OK: &ok}
			if ok {
				res.AltOp = &alt
			}
			results = append(results, res)
		case "first_free":
			var cycle int
			var ok bool
			if rq, isRange := mod.(query.RangeQuerier); isRange {
				cycle, ok = rq.FirstFree(op.Op, op.Lo, op.Hi)
			} else {
				cycle, ok = query.FirstFreeNaive(mod, op.Op, op.Lo, op.Hi)
			}
			res := BatchResult{OK: &ok}
			if ok {
				res.Cycle = &cycle
			}
			results = append(results, res)
		case "first_free_alt":
			var alt, cycle int
			var ok bool
			if rq, isRange := mod.(query.RangeQuerier); isRange {
				alt, cycle, ok = rq.FirstFreeWithAlt(op.Op, op.Lo, op.Hi)
			} else {
				alt, cycle, ok = query.FirstFreeWithAltNaive(mod, op.Op, op.Lo, op.Hi)
			}
			res := BatchResult{OK: &ok}
			if ok {
				res.AltOp = &alt
				res.Cycle = &cycle
			}
			results = append(results, res)
		case "assign":
			if !mod.Check(op.Op, op.Cycle) {
				panic("generated assign conflicts; generator and module disagree")
			}
			mod.Assign(op.Op, op.Cycle, op.ID)
			results = append(results, BatchResult{})
		case "assign_free":
			if !mod.Schedulable(op.Op) {
				panic("generated assign_free is unschedulable; generator and module disagree")
			}
			res := BatchResult{}
			if ev := mod.AssignFree(op.Op, op.Cycle, op.ID); len(ev) > 0 {
				res.Evicted = append([]int(nil), ev...)
			}
			results = append(results, res)
		case "free":
			mod.Free(op.Op, op.Cycle, op.ID)
			results = append(results, BatchResult{})
		}
	}
	return results
}

// postBatch sends a batch to the live server, requiring 200, and returns
// the raw results bytes plus the decoded response.
func postBatch(t *testing.T, url string, req BatchRequest) (json.RawMessage, *BatchResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch on %s/%s: status %d: %s", req.Use, req.Representation, resp.StatusCode, buf.String())
	}
	var raw struct {
		Results json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	var full BatchResponse
	if err := json.Unmarshal(buf.Bytes(), &full); err != nil {
		t.Fatal(err)
	}
	return raw.Results, &full
}

// sortedEvicted normalizes a result list for comparing answers across
// description variants: the set of instances an assign&free evicts is
// determined by the forbidden-latency matrix (and so preserved by
// reduction), but the order the module reports them in follows internal
// table layout, which reduction legitimately changes.
func sortedEvicted(results []BatchResult) []BatchResult {
	out := make([]BatchResult, len(results))
	for i, r := range results {
		out[i] = r
		if len(r.Evicted) > 0 {
			ev := append([]int(nil), r.Evicted...)
			sort.Ints(ev)
			out[i].Evicted = ev
		}
	}
	return out
}

// TestDifferentialScanModes pins the served range scans against the
// per-cycle reference: the same random batch, with a schedule op riding
// along, must be answered by the server (bitvector verdict scan or
// discrete row scan) byte-identically to an in-process replay on a
// query.PerCycle module — range queries through the naive Check loop,
// the schedule op through a per-cycle arena — on linear and modulo
// modules over random machines. The probe currency is conserved: the
// served CheckCalls + FirstFreeCycles equal the Check probes the
// per-cycle replay actually issued.
func TestDifferentialScanModes(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(1996))
	verdictWords := int64(0)
	for i := 0; i < 8; i++ {
		m := resmodel.Random(rng, resmodel.DefaultRandomConfig())
		m.Name = fmt.Sprintf("scan%d", i)
		body, _ := json.Marshal(ReduceRequest{MDL: mdl.Print(m)})
		resp, err := http.Post(ts.URL+"/v1/reduce", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("machine %d: reduce status %d", i, resp.StatusCode)
		}
		sess := s.lookup(m.Name)
		if sess == nil {
			t.Fatalf("machine %d not registered after reduce", i)
		}

		ii := 1 + rng.Intn(m.MaxSpan()+2)
		for _, c := range []batchCase{
			{"reduced", "bitvector", 0},
			{"reduced", "bitvector", ii},
			{"original", "bitvector", ii},
			{"reduced", "discrete", 0},
		} {
			e := sess.expandedFor(c.use)
			probe := localModule(t, e, c)
			ops := genSequence(rand.New(rand.NewSource(rng.Int63())), e, probe, c.ii, true, 80)
			loop := &ddg.Graph{Name: "serve",
				Nodes: []ddg.Node{{Op: 0}, {Op: len(e.AltGroup) - 1}},
				Edges: []ddg.Edge{{From: 0, To: 1, Delay: 1}}}
			req := BatchRequest{Machine: m.Name, Use: c.use,
				Representation: c.representation, II: c.ii,
				Ops: append(ops, BatchOp{Fn: "schedule", Scheduler: "ims",
					Loop: &LoopSpec{Ops: []int{0, len(e.AltGroup) - 1},
						Edges: []LoopEdge{{From: 0, To: 1, Delay: 1}}}})}
			raw, full := postBatch(t, ts.URL, req)

			naive := query.PerCycle(localModule(t, e, c))
			want := replayOps(naive, ops)
			cfg := sched.DefaultConfig()
			cfg.MaxII = scheduleMaxII
			r := sched.NewArena(func(ii int) query.Module {
				return query.PerCycle(localModule(t, e, batchCase{c.use, c.representation, ii}))
			}).Schedule(loop, sess.src, cfg)
			sr := BatchResult{OK: &r.OK, MII: &r.MII}
			if r.OK {
				sr.II, sr.Times, sr.Alts = &r.II, r.Time, r.Alt
			}
			wantRaw, err := json.Marshal(append(want, sr))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, wantRaw) {
				t.Fatalf("machine %d %+v: served results differ from the per-cycle replay\n%s\nvs\n%s",
					i, c, raw, wantRaw)
			}
			got, ref := full.Counters, naive.Counters()
			if ref.FirstFreeCalls != 0 || ref.FirstFreeWithAltCalls != 0 {
				t.Fatalf("machine %d %+v: per-cycle replay made range-scan calls", i, c)
			}
			if got.CheckCalls+got.FirstFreeCycles != ref.CheckCalls {
				t.Errorf("machine %d %+v: probe currency not conserved: served %d checks + %d range probes, per-cycle %d checks",
					i, c, got.CheckCalls, got.FirstFreeCycles, ref.CheckCalls)
			}
			verdictWords += got.FirstFreeVerdictWords
		}
	}
	if verdictWords == 0 {
		t.Error("no served range query built a verdict word; the bit-parallel scan did not run")
	}
}

// TestOldClientScanFieldIgnored pins wire compatibility for clients
// written against the retired "scan" request field: /v1/batch and
// POST /v1/sessions accept it with any value — the former modes
// "words" and "naive" as well as the once-rejected "simd" — and answer
// byte-identically to the same request without it.
func TestOldClientScanFieldIgnored(t *testing.T) {
	s := New(Config{})
	if _, err := s.Register("ex", machines.Example(), core.Objective{Kind: core.ResUses}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	ops := []BatchOp{
		{Fn: "assign_free", Op: 0, Cycle: 1, ID: 1},
		{Fn: "first_free", Op: 1, Lo: 0, Hi: 11},
		{Fn: "first_free_alt", Op: 0, Lo: -2, Hi: 7},
		{Fn: "check_with_alt", Op: 1, Cycle: 2},
		{Fn: "schedule", Loop: dotLoop()},
		{Fn: "schedule", Scheduler: "ims", Loop: dotLoop()},
	}
	// withScan re-encodes a request with an extra top-level "scan" key.
	withScan := func(req any, scan string) []byte {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]any
		if err := json.Unmarshal(b, &fields); err != nil {
			t.Fatal(err)
		}
		fields["scan"] = scan
		if b, err = json.Marshal(fields); err != nil {
			t.Fatal(err)
		}
		return b
	}
	mustOK := func(rec *httptest.ResponseRecorder, what string) []byte {
		t.Helper()
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", what, rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes()
	}

	batch := BatchRequest{Machine: "ex", Representation: "bitvector", II: 4, Ops: ops}
	want := mustOK(post(t, h, "/v1/batch", batch), "batch without scan")
	sessReq := SessionRequest{Machine: "ex", Representation: "bitvector", II: 4}
	session := func(body any) (SessionInfo, []byte) {
		t.Helper()
		rec := post(t, h, "/v1/sessions", body)
		si := *decodeBody[SessionInfo](t, rec)
		mustOK(rec, "session create")
		rec = post(t, h, "/v1/sessions/"+si.SessionID+"/ops", SessionOpsRequest{Ops: ops})
		mustOK(rec, "session ops")
		resp := decodeBody[SessionOpsResponse](t, rec)
		si.SessionID, resp.SessionID = "", ""
		b, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		return si, b
	}
	wantInfo, wantOps := session(sessReq)

	for _, scan := range []string{"words", "naive", "simd"} {
		got := mustOK(post(t, h, "/v1/batch", withScan(batch, scan)), "batch with scan "+scan)
		if !bytes.Equal(got, want) {
			t.Errorf("batch with scan %q differs from the request without it\n%s\nvs\n%s", scan, got, want)
		}
		info, opsResp := session(withScan(sessReq, scan))
		if info != wantInfo || !bytes.Equal(opsResp, wantOps) {
			t.Errorf("session with scan %q differs from the request without it\n%+v %s\nvs\n%+v %s",
				scan, info, opsResp, wantInfo, wantOps)
		}
	}
}

// TestDifferentialServedVsInProcess is the conformance harness of the
// serving layer: mdserve's handler stack on a loopback listener must
// answer batched contention-query sequences byte-identically to the
// in-process internal/query modules, for random machines, on both the
// discrete and bitvector representations, linear and modulo, in both
// assign and assign&free styles, against both the original and the
// reduced description. As a bonus it re-checks the paper's theorem over
// the wire: the reduced description's served answers equal the
// original's for the same sequence (modulo eviction report order).
func TestDifferentialServedVsInProcess(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(42))
	const numMachines = 12
	for i := 0; i < numMachines; i++ {
		m := resmodel.Random(rng, resmodel.DefaultRandomConfig())
		m.Name = fmt.Sprintf("m%d", i)
		src := mdl.Print(m)

		body, _ := json.Marshal(ReduceRequest{MDL: src})
		resp, err := http.Post(ts.URL+"/v1/reduce", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("machine %d: reduce status %d", i, resp.StatusCode)
		}

		// The in-process reference takes the identical path the server
		// does: parse the printed source, then expand / reduce. The
		// session the reduce request just registered exposes both
		// variants; using it also pins that the server serves queries
		// against the same descriptions it returned stats for.
		sess := s.lookup(m.Name)
		if sess == nil {
			t.Fatalf("machine %d not registered after reduce", i)
		}

		ii := 1 + rng.Intn(m.MaxSpan()+2)
		for _, c := range []batchCase{
			{"original", "discrete", 0},
			{"original", "discrete", ii},
			{"original", "bitvector", 0},
			{"original", "bitvector", ii},
			{"reduced", "discrete", 0},
			{"reduced", "bitvector", ii},
			{"reduced", "fsa", 0},
			{"original", "fsa", 0},
			{"reduced", "auto", 0},
			{"original", "auto", ii},
		} {
			for _, assignFree := range []bool{false, true} {
				e := sess.expandedFor(c.use)
				probe := localModule(t, e, c)
				if probe == nil {
					continue // pinned backend infeasible here (FSA over budget)
				}
				seqSeed := rng.Int63()
				ops := genSequence(rand.New(rand.NewSource(seqSeed)), e, probe, c.ii, assignFree, 100)
				ref := localModule(t, e, c)
				want := replayOps(ref, ops)

				req := BatchRequest{
					Machine:        m.Name,
					Use:            c.use,
					Representation: c.representation,
					II:             c.ii,
					Ops:            ops,
				}
				gotRaw, full := postBatch(t, ts.URL, req)
				wantRaw, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotRaw, wantRaw) {
					t.Fatalf("machine %d %+v assignFree=%v: served results differ from in-process module\nserved: %s\nlocal:  %s",
						i, c, assignFree, gotRaw, wantRaw)
				}
				if full.Counters != *ref.Counters() {
					t.Errorf("machine %d %+v assignFree=%v: served counters %+v differ from in-process %+v",
						i, c, assignFree, full.Counters, *ref.Counters())
				}
				if c.representation == "auto" {
					wantSel, err := query.Select(e, query.Policy{Representation: "auto", II: c.ii})
					if err != nil {
						t.Fatal(err)
					}
					if full.Backend != wantSel.Backend {
						t.Errorf("machine %d %+v: served backend %q, local auto-selection picked %q",
							i, c, full.Backend, wantSel.Backend)
					}
				} else if full.Backend != c.representation {
					t.Errorf("machine %d %+v: served backend %q for pinned representation", i, c, full.Backend)
				}

				// Cross-representation equivalence on the wire: the FSA
				// must answer the identical sequence exactly as the
				// reference reduced-table backend (modulo eviction
				// report order).
				if c.representation == "fsa" {
					reqD := req
					reqD.Representation = "discrete"
					_, dFull := postBatch(t, ts.URL, reqD)
					a, err := json.Marshal(sortedEvicted(full.Results))
					if err != nil {
						t.Fatal(err)
					}
					b, err := json.Marshal(sortedEvicted(dFull.Results))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(a, b) {
						t.Fatalf("machine %d %+v assignFree=%v: fsa answers differ from discrete\n%s\nvs\n%s",
							i, c, assignFree, a, b)
					}
				}

				// The wire-level reduction theorem: replaying the same
				// valid sequence against the other description variant
				// yields the same answers and evicted sets (work
				// counters legitimately differ; so can eviction order).
				otherUse := "reduced"
				if c.use == "reduced" {
					otherUse = "original"
				}
				if c.representation == "fsa" && localModule(t, sess.expandedFor(otherUse), c) == nil {
					continue // the other variant's automata exceed the budget
				}
				req.Use = otherUse
				_, otherFull := postBatch(t, ts.URL, req)
				a, err := json.Marshal(sortedEvicted(full.Results))
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(sortedEvicted(otherFull.Results))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a, b) {
					t.Fatalf("machine %d %+v assignFree=%v: %s description answers differ from %s\n%s\nvs\n%s",
						i, c, assignFree, otherUse, c.use, b, a)
				}
			}
		}
	}
}
