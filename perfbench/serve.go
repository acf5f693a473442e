package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/machines"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/resmodel"
	"repro/internal/sched"
	"repro/internal/serve"
)

const (
	// serveClients is the closed loop's client count: one per CPU of the
	// 2-CPU host the benchmark targets. A compiler waits for every
	// reply, so each client sends its next request only after the last.
	serveClients = 2
	// serveTasks is each client's task list per round; every
	// serveSessionEvery-th task is a session (create, stream, delete),
	// the rest one-shot batch schedule ops. No recorded mdserve traffic
	// fixes the ratio; 3 batch ops per 3-request session gives each kind
	// half of the requests.
	serveTasks        = serveWindows * serveWindow
	serveSessionEvery = 4
	// A round is serveWindows windows of serveWindow consecutive tasks
	// per client. Latency percentiles are taken per window and the
	// metrics are their median over the windows. A window is 9600
	// requests, the most whose tail is still the p99 (see tailQuantile).
	// The tail is set by the longest session streams: with 2400 requests
	// per window it moved by a third between seeds, so a run takes two
	// windows of the largest size.
	serveWindow  = 3200
	serveWindows = 2
	// serveChunk is the tasks per client in one timed chunk (about 25 ms).
	serveChunk = 50
	// serveSetupEvery is the chunks per timed cold set-up (about one per
	// 1.2 s of requests).
	serveSetupEvery = 48
	// serveMaxLoopOps is the wire's documented cap on a schedule op's
	// loop; larger corpus loops would be refused with a 400.
	serveMaxLoopOps = 64
	// serveWarmPasses run before timing: the handler's first passes run
	// up to 1.8x slower.
	serveWarmPasses = 1
	serveMachine    = "cydra5"
	// serveQualityLoops is the corpus drawn per seed. Its loops within
	// the wire's limit are each scheduled once through the server,
	// untimed, for code_cycles and proven_frac: about 5% of served
	// schedules reach the MII, so the share is taken over all of them,
	// not only the timed batch loops. The timed tasks are its first
	// serveClients*serveTasks loops within the limit.
	serveQualityLoops = 16000
	// serveRep is the server's default representation. Requests leave
	// it implicit; the direct library calls select it by name.
	serveRep = "discrete"
)

// wireOp is one recorded query call of an IMS run, replayed on a
// session stream, with the answer the library gave.
type wireOp struct {
	op   serve.BatchOp
	want serve.BatchResult
}

// recModule records the calls of the final IMS attempt on one module
// (Reset, which starts every attempt, clears the record).
type recModule struct {
	query.Module
	rq  query.RangeQuerier
	ag  query.AltGrouper
	mf  query.MemoryFootprint
	ops []wireOp
}

func newRecModule(m query.Module) *recModule {
	return &recModule{Module: m, rq: m.(query.RangeQuerier), ag: m.(query.AltGrouper), mf: m.(query.MemoryFootprint)}
}

func ptr[T any](v T) *T { return &v }

func (r *recModule) Reset() { r.Module.Reset(); r.ops = r.ops[:0] }

func (r *recModule) Check(op, cycle int) bool {
	ok := r.Module.Check(op, cycle)
	r.ops = append(r.ops, wireOp{serve.BatchOp{Fn: "check", Op: op, Cycle: cycle}, serve.BatchResult{OK: ptr(ok)}})
	return ok
}

func (r *recModule) Assign(op, cycle, id int) {
	r.Module.Assign(op, cycle, id)
	r.ops = append(r.ops, wireOp{op: serve.BatchOp{Fn: "assign", Op: op, Cycle: cycle, ID: id}})
}

func (r *recModule) AssignFree(op, cycle, id int) []int {
	ev := r.Module.AssignFree(op, cycle, id)
	w := wireOp{op: serve.BatchOp{Fn: "assign_free", Op: op, Cycle: cycle, ID: id}}
	if len(ev) > 0 {
		w.want.Evicted = append([]int(nil), ev...)
	}
	r.ops = append(r.ops, w)
	return ev
}

func (r *recModule) Free(op, cycle, id int) {
	r.Module.Free(op, cycle, id)
	r.ops = append(r.ops, wireOp{op: serve.BatchOp{Fn: "free", Op: op, Cycle: cycle, ID: id}})
}

func (r *recModule) CheckWithAlt(origOp, cycle int) (int, bool) {
	alt, ok := r.Module.CheckWithAlt(origOp, cycle)
	w := wireOp{serve.BatchOp{Fn: "check_with_alt", Op: origOp, Cycle: cycle}, serve.BatchResult{OK: ptr(ok)}}
	if ok {
		w.want.AltOp = ptr(alt)
	}
	r.ops = append(r.ops, w)
	return alt, ok
}

func (r *recModule) FirstFree(op, lo, hi int) (int, bool) {
	c, ok := r.rq.FirstFree(op, lo, hi)
	if lo <= hi { // the wire refuses empty ranges; they answer "no slot"
		w := wireOp{serve.BatchOp{Fn: "first_free", Op: op, Lo: lo, Hi: hi}, serve.BatchResult{OK: ptr(ok)}}
		if ok {
			w.want.Cycle = ptr(c)
		}
		r.ops = append(r.ops, w)
	}
	return c, ok
}

func (r *recModule) FirstFreeWithAlt(origOp, lo, hi int) (int, int, bool) {
	alt, c, ok := r.rq.FirstFreeWithAlt(origOp, lo, hi)
	if lo <= hi {
		w := wireOp{serve.BatchOp{Fn: "first_free_alt", Op: origOp, Lo: lo, Hi: hi}, serve.BatchResult{OK: ptr(ok)}}
		if ok {
			w.want.AltOp, w.want.Cycle = ptr(alt), ptr(c)
		}
		r.ops = append(r.ops, w)
	}
	return alt, c, ok
}

func (r *recModule) AltGroupOf(origOp int) []int { return r.ag.AltGroupOf(origOp) }
func (r *recModule) StateBytes() int             { return r.mf.StateBytes() }

// serveTask is one client task: a one-shot batch schedule op, or a
// session that replays the loop's final IMS attempt as an NDJSON stream.
type serveTask struct {
	loop    *ddg.Graph
	session bool
	batch   []byte // POST /v1/batch body
	create  []byte // POST /v1/sessions body
	stream  []byte // NDJSON ops
	// want is the library's IMS schedule of the loop on the original
	// machine: its MII is the bound a served II must meet, and a
	// session replays its final attempt. wantStream holds the stream's
	// result lines as the library answered them.
	want       sched.Result
	wantStream []byte
	ops        []wireOp
	// served is the II the server answered a batch task with (0 before
	// the first answer); it must not change between passes.
	served int
}

// requests is how many HTTP requests the task makes.
func (t *serveTask) requests() int {
	if t.session {
		return 3
	}
	return 1
}

// serveLoad is the inputs of mdserve-schedule.
type serveLoad struct {
	tasks    [][]*serveTask // per client, the timed traffic
	quality  [][]*serveTask // per client, one batch op per loop of the quality corpus
	filtered float64        // share of drawn loops over the wire's limit
}

// serveInputs draws the seeded corpus, keeps the loops the wire accepts,
// and deals them to the clients' task lists. Every accepted loop, the
// timed ones included, is also one batch op of the quality corpus.
func serveInputs(m *resmodel.Machine, seed int64) (*serveLoad, error) {
	need := serveClients * serveTasks
	pool, err := cydraCorpus(m, serveQualityLoops, seed)
	if err != nil {
		return nil, err
	}
	var loops []*ddg.Graph
	for _, g := range pool {
		if len(g.Nodes) <= serveMaxLoopOps {
			loops = append(loops, g)
		}
	}
	in := &serveLoad{
		tasks:    make([][]*serveTask, serveClients),
		quality:  make([][]*serveTask, serveClients),
		filtered: 1 - float64(len(loops))/float64(len(pool)),
	}
	if len(loops) < need {
		return nil, fmt.Errorf("mdserve: %d of %d loops fit the wire, need %d", len(loops), len(pool), need)
	}
	for i, g := range loops {
		t, err := batchTask(g)
		if err != nil {
			return nil, err
		}
		in.quality[i%serveClients] = append(in.quality[i%serveClients], t)
	}
	for c := range in.tasks {
		for j := 0; j < serveTasks; j++ {
			t, err := batchTask(loops[c*serveTasks+j])
			if err != nil {
				return nil, err
			}
			t.session = j%serveSessionEvery == serveSessionEvery-1
			in.tasks[c] = append(in.tasks[c], t)
		}
	}
	return in, nil
}

// batchTask builds the one-shot batch schedule op for loop g.
func batchTask(g *ddg.Graph) (*serveTask, error) {
	spec := &serve.LoopSpec{}
	for _, n := range g.Nodes {
		spec.Ops = append(spec.Ops, n.Op)
	}
	for _, e := range g.Edges {
		spec.Edges = append(spec.Edges, serve.LoopEdge{From: e.From, To: e.To, Delay: e.Delay, Dist: e.Dist})
	}
	body, err := json.Marshal(serve.BatchRequest{Machine: serveMachine,
		Ops: []serve.BatchOp{{Fn: "schedule", Scheduler: "ims", Loop: spec}}})
	return &serveTask{loop: g, batch: body}, err
}

// serveIMSConfig is the configuration the wire's ims schedule op uses.
func serveIMSConfig() sched.Config {
	cfg := sched.DefaultConfig()
	cfg.MaxII = 512
	return cfg
}

// expect schedules every task's loop with direct library calls, on a
// reduction of the benchmark's own (the objective the server registers
// with) and the original machine, as a client compiler would, and
// builds the session requests from the recorded IMS calls.
func expect(tasks [][]*serveTask, m *resmodel.Machine) error {
	red := core.NewCache().Reduce(m.Expand(), serveObjective, 1)
	if err := red.Verify(); err != nil {
		return err
	}
	recs := map[int]*recModule{}
	factory := serveFactory(red.Reduced)
	a := sched.NewArena(func(ii int) query.Module {
		r := newRecModule(factory(ii))
		recs[ii] = r
		return r
	})
	cfg := serveIMSConfig()
	for _, list := range tasks {
		for _, t := range list {
			t.want = a.Schedule(t.loop, m, cfg)
			if !t.want.OK || !t.session {
				continue
			}
			t.ops = append([]wireOp(nil), recs[t.want.II].ops...)
			var body, lines bytes.Buffer
			for _, w := range t.ops {
				op, err := json.Marshal(w.op)
				if err != nil {
					return err
				}
				res, err := json.Marshal(w.want)
				if err != nil {
					return err
				}
				body.Write(append(op, '\n'))
				lines.Write(append(res, '\n'))
			}
			t.stream, t.wantStream = body.Bytes(), lines.Bytes()
			var err error
			t.create, err = json.Marshal(serve.SessionRequest{Machine: serveMachine, II: t.want.II})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// serveObjective is the objective mdserve -preload registers with.
var serveObjective = core.Objective{Kind: core.ResUses}

// serveFactory builds modules of the reduced description e per II in
// the server's default representation.
func serveFactory(e *resmodel.Expanded) sched.ModuleFactory {
	return repFactory(e, query.Policy{Representation: serveRep})
}

// serveSetup is the daemon's cold start: a server with mdserve's
// default flags and Cydra 5 registered as -preload registers it.
func serveSetup() (*serve.Server, *core.Result, error) {
	s := serve.New(serve.Config{CacheCapacity: 128})
	red, err := s.Register(serveMachine, machines.Cydra5(), serveObjective)
	return s, red, err
}

// exchange is one HTTP request and its outcome.
type exchange struct {
	status          int
	body            []byte
	reqLen, respLen int
}

// doer sends one request: over loopback HTTP, or straight into the
// handler.
type doer func(method, path string, body []byte) (exchange, error)

func httpDoer(client *http.Client, base string) doer {
	return func(method, path string, body []byte) (exchange, error) {
		req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
		if err != nil {
			return exchange{}, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return exchange{}, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		return exchange{resp.StatusCode, data, len(body), len(data)}, err
	}
}

func handlerDoer(h http.Handler) doer {
	return func(method, path string, body []byte) (exchange, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return exchange{rec.Code, rec.Body.Bytes(), len(body), rec.Body.Len()}, nil
	}
}

// clientRun is what one client saw in one pass.
type clientRun struct {
	lat             []float64 // seconds per request, in request order
	reqB, respB     int
	refused, failed int
	errs            []string
}

func (cr *clientRun) fail(format string, args ...any) {
	cr.failed++
	if len(cr.errs) < 4 {
		cr.errs = append(cr.errs, fmt.Sprintf(format, args...))
	}
}

// runTasks sends one client's task list, timing every request and
// checking every answer: a schedule against the original description,
// a stream against the library's answers.
func runTasks(do doer, list []*serveTask, orig *resmodel.Expanded) *clientRun {
	cr := &clientRun{}
	send := func(method, path string, body []byte) (exchange, bool) {
		t0 := time.Now()
		x, err := do(method, path, body)
		cr.lat = append(cr.lat, time.Since(t0).Seconds())
		cr.reqB += x.reqLen
		cr.respB += x.respLen
		switch {
		case err != nil:
			cr.fail("%s %s: %v", method, path, err)
			return x, false
		case x.status == http.StatusTooManyRequests || x.status == http.StatusServiceUnavailable:
			cr.refused++
			cr.fail("%s %s: refused (%d)", method, path, x.status)
			return x, false
		case x.status != http.StatusOK:
			cr.fail("%s %s: status %d: %s", method, path, x.status, x.body)
			return x, false
		}
		return x, true
	}
	for _, t := range list {
		if !t.session {
			x, ok := send("POST", "/v1/batch", t.batch)
			if ok {
				if err := checkBatch(x.body, t, orig); err != nil {
					cr.fail("%s: %v", t.loop.Name, err)
				}
			}
			continue
		}
		x, ok := send("POST", "/v1/sessions", t.create)
		var info serve.SessionInfo
		if ok {
			if err := json.Unmarshal(x.body, &info); err != nil || info.SessionID == "" {
				cr.fail("%s: bad session create response %q", t.loop.Name, x.body)
			}
		}
		x, ok = send("POST", "/v1/sessions/"+info.SessionID+"/stream", t.stream)
		if ok && (len(x.body) < len(t.wantStream) || !bytes.Equal(x.body[:len(t.wantStream)], t.wantStream)) {
			cr.fail("%s: stream answers differ from the library's", t.loop.Name)
		}
		send("DELETE", "/v1/sessions/"+info.SessionID, nil)
	}
	return cr
}

// checkBatch checks a served schedule: it must exist, its II must be at
// least the original machine's MII and equal the II served on earlier
// passes, and it must place every node and pass VerifySchedule against
// the original description. It does not ask for the library's II: how
// close the server gets to the MII is what code_cycles and proven_frac
// measure.
func checkBatch(body []byte, t *serveTask, orig *resmodel.Expanded) error {
	var resp serve.BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if len(resp.Results) != 1 {
		return fmt.Errorf("%d results", len(resp.Results))
	}
	got := resp.Results[0]
	switch {
	case got.OK == nil || !*got.OK || got.II == nil:
		return fmt.Errorf("not scheduled")
	case *got.II < t.want.MII:
		return fmt.Errorf("served II %d below the original machine's MII %d", *got.II, t.want.MII)
	case t.served != 0 && *got.II != t.served:
		return fmt.Errorf("served II changed between passes (%d, then %d)", t.served, *got.II)
	}
	if n := len(t.loop.Nodes); len(got.Times) != n || len(got.Alts) != n {
		return fmt.Errorf("%d times and %d alts for %d nodes", len(got.Times), len(got.Alts), n)
	}
	for _, a := range got.Alts {
		if a < 0 || a >= len(orig.Ops) {
			return fmt.Errorf("alt %d out of range", a)
		}
	}
	t.served = *got.II
	return sched.VerifySchedule(t.loop, orig, sched.Result{OK: true, II: *got.II, Time: got.Times, Alt: got.Alts})
}

// loopback is an in-process mdserve on a loopback listener.
type loopback struct {
	srv      *http.Server
	done     chan error
	client   *http.Client
	base     string
	stopOnce sync.Once
	stopErr  error
}

func startLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: serveClients,
			DisableCompression:  true,
		}},
		base: "http://" + ln.Addr().String(),
	}
	go func() { lb.done <- lb.srv.Serve(ln) }()
	return lb, nil
}

// stop shuts the server down and waits for its goroutine to return.
// Later calls return the first call's error.
func (lb *loopback) stop() error {
	lb.stopOnce.Do(func() {
		lb.client.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		lb.stopErr = lb.srv.Shutdown(ctx)
		if err := <-lb.done; err != http.ErrServerClosed && lb.stopErr == nil {
			lb.stopErr = err
		}
	})
	return lb.stopErr
}

// pass runs every client's task list concurrently once and returns
// each client's record and the pass wall time.
func (lb *loopback) pass(tasks [][]*serveTask, orig *resmodel.Expanded) ([]*clientRun, float64) {
	runs := make([]*clientRun, len(tasks))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range tasks {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runs[c] = runTasks(httpDoer(lb.client, lb.base), tasks[c], orig)
		}(c)
	}
	wg.Wait()
	return runs, time.Since(t0).Seconds()
}

func runServe(o options, traced bool) (*result, error) {
	m := machines.Cydra5()
	t0 := time.Now()
	in, err := serveInputs(m, o.seed)
	if err != nil {
		return nil, err
	}
	tasks := in.tasks
	genMS := 1e3 * time.Since(t0).Seconds()
	orig := m.Expand()
	// mdserve's default: metrics on. Modules capture the switch when
	// built, so it is set before set-up and cleared on return.
	obs.Default().SetEnabled(true)
	defer obs.Default().SetEnabled(false)

	r := &result{}
	for _, list := range tasks {
		for _, t := range list {
			r.attempted += t.requests()
		}
	}
	r.note("loops over the wire's %d-op schedule limit filtered: %.2f%%", serveMaxLoopOps, 100*in.filtered)
	if traced {
		return tracedServe(r, m, orig, tasks, genMS)
	}

	if err := expect(tasks, m); err != nil {
		return nil, err
	}
	heap0 := liveHeap()
	srv, _, err := serveSetup()
	if err != nil {
		return nil, err
	}
	lb, err := startLoopback(srv.Handler())
	if err != nil {
		return nil, err
	}
	defer lb.stop()

	for _, list := range tasks {
		for _, t := range list {
			if !t.want.OK {
				r.fail("%s: library did not schedule it", t.loop.Name)
			}
		}
	}
	// Every pass, warm-up and timed, checks every answer. A failing
	// request fails on every pass, so the run reports the pass with the
	// most failures.
	collect := func(runs []*clientRun) int {
		failed := 0
		for _, cr := range runs {
			failed += cr.failed
			for _, e := range cr.errs {
				if len(r.errs) < 8 {
					r.errs = append(r.errs, e)
				}
			}
		}
		return failed
	}
	for i := 0; i < serveWarmPasses; i++ {
		runs, _ := lb.pass(tasks, orig)
		r.failed = max(r.failed, collect(runs))
	}
	// The server's state is complete after the warm-up; it is read
	// before the timed set-ups, whose products the query layer's
	// process-wide caches keep.
	retained := retainedMB(heap0)

	// Quality of the served schedules: every loop of the quality corpus
	// once as a batch op, its II against the original machine's MII.
	var mii ddg.MIIScratch
	usage := ddg.MachineUsage{M: m}
	for _, list := range in.quality {
		for _, t := range list {
			t.want.MII = mii.MII(t.loop, usage)
		}
	}
	runs, _ := lb.pass(in.quality, orig)
	timedRequests := r.attempted
	var sumII, nProven, nLoops int
	r.failed += collect(runs)
	for _, list := range in.quality {
		r.attempted += len(list)
		for _, t := range list {
			if t.served != 0 {
				sumII += t.served
				nLoops++
				if t.served == t.want.MII {
					nProven++
				}
			}
		}
	}
	// Dropped before timing, so collections during the rounds do not
	// mark it.
	in.quality = nil

	// Timed rounds on a closed loop of both clients. A round sends every
	// chunk of serveChunk tasks per client in turn; after every
	// serveSetupEvery chunks comes one cold set-up, on alternate CPUs.
	// Throughput counts each chunk at its fastest wall time over the
	// rounds (the host slows down for seconds at a time, so short chunks
	// repeated across rounds catch it fast; see passTimes). Latency
	// takes every request at its median time over the rounds: what that
	// request typically costs, with the queueing and collection work it
	// typically meets, but not a slow spell or pause that hits one
	// round.
	st := newSetupTimer(func() (*serve.Server, error) {
		s, _, err := serveSetup()
		return s, err
	})
	cpus := allowedCPUs()
	var walls, chunkMin []float64
	// rounds[k][w] is every request's time in window w of round k, in
	// request order.
	var rounds [][][]float64
	chunks := 0
	start := time.Now()
	for len(walls) < minPasses || len(st.times) < minSetups || time.Since(start).Seconds() < o.seconds {
		roundLat := make([][]float64, serveWindows)
		round, failed := 0.0, 0
		for ci, lo := 0, 0; lo < serveTasks; ci, lo = ci+1, lo+serveChunk {
			chunk := make([][]*serveTask, len(tasks))
			for c := range tasks {
				chunk[c] = tasks[c][lo:min(lo+serveChunk, serveTasks)]
			}
			runs, wall := lb.pass(chunk, orig)
			failed += collect(runs)
			round += wall
			if ci == len(chunkMin) {
				chunkMin = append(chunkMin, wall)
			}
			chunkMin[ci] = math.Min(chunkMin[ci], wall)
			w := lo / serveWindow
			for _, cr := range runs {
				roundLat[w] = append(roundLat[w], cr.lat...)
			}
			if chunks++; chunks%serveSetupEvery == 0 {
				onCPUOf(cpus, len(st.times), st.once)
			}
		}
		walls = append(walls, round)
		rounds = append(rounds, roundLat)
		r.failed = max(r.failed, failed)
	}
	if st.err != nil {
		return nil, st.err
	}
	if err := lb.stop(); err != nil {
		return nil, err
	}
	var p50s, tails []float64
	var lat latency
	times := make([]float64, len(rounds))
	for w := range serveWindows {
		reqLat := make([]float64, len(rounds[0][w]))
		for i := range reqLat {
			for k, rl := range rounds {
				if len(rl[w]) != len(reqLat) {
					return nil, fmt.Errorf("mdserve: window %d timed %d requests in one round and %d in another", w, len(reqLat), len(rl[w]))
				}
				times[k] = rl[w][i]
			}
			reqLat[i] = median(times)
		}
		lat = latencyOf(reqLat, fmt.Sprintf("requests of a window, each at its median over %d rounds; median over %d windows", len(rounds), serveWindows))
		p50s, tails = append(p50s, lat.p50), append(tails, lat.tail)
	}
	lat.p50, lat.tail = median(p50s), median(tails)

	var fastest float64
	for _, w := range chunkMin {
		fastest += w
	}
	endToEnd(r, st, float64(timedRequests)/fastest, lat, walls)
	r.add("code_cycles", float64(sumII)/float64(nLoops), "cycles")
	r.add("proven_frac", float64(nProven)/float64(nLoops), "frac")
	r.add("retained_heap_mb", retained, "MiB")
	runtime.KeepAlive([]any{srv, tasks})
	return r, nil
}

// directExec answers one task's requests with the library calls the
// handler makes (a fresh arena per batch, scheduling against the
// machine the handler passes; a fresh module per session replaying the
// stream), and reports the time per request and a batch's schedule.
func directExec(t *serveTask, e *resmodel.Expanded, factory func(ii int) query.Module) ([]float64, sched.Result) {
	if !t.session {
		t0 := time.Now()
		res := sched.NewArena(factory).Schedule(t.loop, e.Machine(), serveIMSConfig())
		return []float64{time.Since(t0).Seconds()}, res
	}
	t0 := time.Now()
	mod := factory(t.want.II)
	create := time.Since(t0).Seconds()
	t0 = time.Now()
	rq := mod.(query.RangeQuerier)
	for _, w := range t.ops {
		op := &w.op
		switch op.Fn {
		case "check":
			mod.Check(op.Op, op.Cycle)
		case "assign":
			mod.Check(op.Op, op.Cycle) // the handler checks before assigning
			mod.Assign(op.Op, op.Cycle, op.ID)
		case "assign_free":
			mod.Schedulable(op.Op)
			mod.AssignFree(op.Op, op.Cycle, op.ID)
		case "free":
			mod.Free(op.Op, op.Cycle, op.ID)
		case "check_with_alt":
			mod.CheckWithAlt(op.Op, op.Cycle)
		case "first_free":
			rq.FirstFree(op.Op, op.Lo, op.Hi)
		case "first_free_alt":
			rq.FirstFreeWithAlt(op.Op, op.Lo, op.Hi)
		}
	}
	return []float64{create, time.Since(t0).Seconds(), 0}, sched.Result{}
}

// tracedServe is the traced run of mdserve-schedule: every request once
// through the in-process handler and once as direct library calls (the
// difference is the wire: routing, JSON decode and encode, admission),
// the direct calls again through timed query modules, and one loopback
// pass for allocation, byte and refusal counts.
func tracedServe(r *result, m *resmodel.Machine, orig *resmodel.Expanded, tasks [][]*serveTask, genMS float64) (*result, error) {
	l := layers{}
	l.set("loopgen.gen_ms", genMS)
	t0 := time.Now()
	srv, red, err := serveSetup()
	if err != nil {
		return nil, err
	}
	l.set("core.reduce_ms", 1e3*time.Since(t0).Seconds())
	l.set("core.reduced_resources", float64(red.NumResources()))
	l.set("core.reduced_usages", float64(red.NumUsages()))
	e := red.Reduced
	t0 = time.Now()
	if _, err := query.Select(e, query.Policy{Representation: serveRep, II: 1}); err != nil {
		return nil, err
	}
	l.set("query.select_ms", 1e3*time.Since(t0).Seconds())
	if err := expect(tasks, m); err != nil {
		return nil, err
	}
	n := r.attempted

	// In-process handler, warmed as the loopback run is.
	h := srv.Handler()
	var handlerS float64
	for i := 0; i <= serveWarmPasses; i++ {
		handlerS = 0
		for _, list := range tasks {
			cr := runTasks(handlerDoer(h), list, orig)
			for _, d := range cr.lat {
				handlerS += d
			}
			if i == 0 {
				r.failed += cr.failed
				r.errs = append(r.errs, cr.errs...)
			}
		}
	}

	// Direct calls, untraced then through timed modules.
	plain := serveFactory(e)
	var execS float64
	for i := 0; i < 2; i++ {
		execS = 0
		for _, list := range tasks {
			for _, t := range list {
				ds, _ := directExec(t, e, plain)
				for _, d := range ds {
					execS += d
				}
			}
		}
	}
	qt := &queryTrace{}
	timed := qt.factory(plain)
	var tracedS, miiNS, decisions, attempts, nodes float64
	var mii ddg.MIIScratch
	usage := ddg.MachineUsage{M: e.Machine()}
	for _, list := range tasks {
		for _, t := range list {
			ds, res := directExec(t, e, timed)
			for _, d := range ds {
				tracedS += d
			}
			if !t.session {
				m0 := time.Now()
				mii.MII(t.loop, usage)
				miiNS += float64(time.Since(m0).Nanoseconds())
				decisions += float64(res.Decisions)
				attempts += float64(res.Attempts)
				nodes += float64(len(t.loop.Nodes))
			}
		}
	}
	l.addQuery(qt, n, 1e9*tracedS)
	l.set("ddg.mii_ns", miiNS/float64(n))
	l.set("sched.self_ns", (1e9*tracedS-float64(qt.totalNS())-miiNS)/float64(n))
	l.set("sched.ims.decisions", decisions/float64(n))
	l.set("sched.ims.attempts", attempts/float64(n))
	l.set("sched.ims.useful_ratio", ratio(nodes, decisions))
	l.set("serve.handler_us", 1e6*handlerS/float64(n))
	l.set("serve.exec_us", 1e6*execS/float64(n))
	l.set("serve.wire_us", 1e6*(handlerS-execS)/float64(n))
	l.set("trace.overhead_frac", tracedS/execS)

	lb, err := startLoopback(h)
	if err != nil {
		return nil, err
	}
	lb.pass(tasks, orig) // warm the connections
	a0 := readAllocs()
	runs, _ := lb.pass(tasks, orig)
	l.addRuntime(a0, n)
	if err := lb.stop(); err != nil {
		return nil, err
	}
	var reqB, respB, refused int
	for _, cr := range runs {
		reqB += cr.reqB
		respB += cr.respB
		refused += cr.refused
	}
	l.set("serve.req_bytes", float64(reqB)/float64(n))
	l.set("serve.resp_bytes", float64(respB)/float64(n))
	l.set("serve.refused", float64(refused))
	r.note("traced %d requests: handler %.1fus, direct exec %.1fus per request", n, 1e6*handlerS/float64(n), 1e6*execS/float64(n))
	l.into(r)
	return r, nil
}
