package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/resmodel"
)

// layerUnits lists every per-layer metric with its unit, in output
// order. A traced run of any workload reports all of them; a metric of
// a layer the workload does not exercise reads 0 (README.md maps each
// metric to its workload).
var layerUnits = func() []metric {
	ms := []metric{
		{Name: "core.reduce_ms", Unit: "ms"},
		{Name: "query.select_ms", Unit: "ms"},
		{Name: "core.reduced_resources", Unit: "count"},
		{Name: "core.reduced_usages", Unit: "count"},
	}
	for _, op := range opNames {
		p := "query." + op
		ms = append(ms,
			metric{Name: p + ".calls", Unit: "count/problem"},
			metric{Name: p + ".ns", Unit: "ns/problem"},
			metric{Name: p + ".work", Unit: "work/problem"},
			metric{Name: p + ".ns_per_work", Unit: "ns/work"})
	}
	return append(ms,
		metric{Name: "query.self_share", Unit: "frac"},
		metric{Name: "query.state_bytes", Unit: "bytes"},
		metric{Name: "query.backend.discrete.ns_per_block", Unit: "ns/block"},
		metric{Name: "query.backend.bitvector.ns_per_block", Unit: "ns/block"},
		metric{Name: "query.backend.fsa.ns_per_block", Unit: "ns/block"},
		metric{Name: "ddg.mii_ns", Unit: "ns/problem"},
		metric{Name: "sched.self_ns", Unit: "ns/problem"},
		metric{Name: "sched.ims.decisions", Unit: "count/problem"},
		metric{Name: "sched.ims.attempts", Unit: "count/problem"},
		metric{Name: "sched.ims.useful_ratio", Unit: "nodes/decision"},
		metric{Name: "sched.optimal.nodes", Unit: "count/problem"},
		metric{Name: "sched.optimal.ns_per_node", Unit: "ns/node"},
		metric{Name: "sched.optimal.fallback_frac", Unit: "frac"},
		metric{Name: "serve.handler_us", Unit: "us/request"},
		metric{Name: "serve.exec_us", Unit: "us/request"},
		metric{Name: "serve.wire_us", Unit: "us/request"},
		metric{Name: "serve.req_bytes", Unit: "bytes/request"},
		metric{Name: "serve.resp_bytes", Unit: "bytes/request"},
		metric{Name: "serve.refused", Unit: "count"},
		metric{Name: "runtime.alloc_bytes_per_problem", Unit: "bytes/problem"},
		metric{Name: "runtime.gc_cycles", Unit: "count/pass"},
		metric{Name: "loopgen.gen_ms", Unit: "ms"},
		metric{Name: "trace.overhead_frac", Unit: "ratio"},
	)
}()

// layers collects a traced run's per-layer values by name.
type layers map[string]float64

func (l layers) set(name string, v float64) {
	for _, m := range layerUnits {
		if m.Name == name {
			l[name] = v
			return
		}
	}
	panic(fmt.Sprintf("perfbench: unknown per-layer metric %q", name))
}

// into appends every per-layer metric to r in canonical order.
func (l layers) into(r *result) {
	for _, m := range layerUnits {
		r.add(m.Name, l[m.Name], m.Unit)
	}
}

// addQuery records the per-op query metrics, normalised per problem
// (calls, ns and Table 6 work units), plus ns per work unit, the query
// share of traced problem time, and the modules' reserved-state bytes.
func (l layers) addQuery(qt *queryTrace, problems int, problemNS float64) {
	for op, s := range qt.ops {
		p := "query." + opNames[op]
		l.set(p+".calls", ratio(float64(s.calls), float64(problems)))
		l.set(p+".ns", ratio(float64(s.ns), float64(problems)))
		l.set(p+".work", ratio(float64(s.work), float64(problems)))
		l.set(p+".ns_per_work", ratio(float64(s.ns), float64(s.work)))
	}
	l.set("query.self_share", ratio(float64(qt.totalNS()), problemNS))
	l.set("query.state_bytes", qt.stateBytes())
}

// tracedSetup times one cold set-up split into its layers: the
// reduction (fresh core cache, reduce, Verify) and the module selection
// under pol. It returns the reduced description.
func (l layers) tracedSetup(m *resmodel.Machine, pol query.Policy) (*resmodel.Expanded, error) {
	t0 := time.Now()
	red, err := reduce(m)
	if err != nil {
		return nil, err
	}
	l.set("core.reduce_ms", 1e3*time.Since(t0).Seconds())
	l.set("core.reduced_resources", float64(red.NumResources()))
	l.set("core.reduced_usages", float64(red.NumUsages()))
	t0 = time.Now()
	if _, err := query.Select(red.Reduced, pol); err != nil {
		return nil, err
	}
	l.set("query.select_ms", 1e3*time.Since(t0).Seconds())
	return red.Reduced, nil
}

// reduce is the cold reduction every set-up starts with: a fresh core
// cache, the 64-bit-word objective, one worker, and the paper's
// theorem checked by Verify.
func reduce(m *resmodel.Machine) (*core.Result, error) {
	red := core.NewCache().Reduce(m.Expand(), core.Objective{Kind: core.KCycleWord, K: 64}, 1)
	if err := red.Verify(); err != nil {
		return nil, err
	}
	return red, nil
}

// allocs samples the runtime's allocation and GC counters.
type allocs struct{ bytes, gcs uint64 }

func readAllocs() allocs {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocs{ms.TotalAlloc, uint64(ms.NumGC)}
}

// addRuntime records allocation per problem and GC cycles over one
// untraced pass of n problems that started at a.
func (l layers) addRuntime(a allocs, n int) {
	b := readAllocs()
	l.set("runtime.alloc_bytes_per_problem", ratio(float64(b.bytes-a.bytes), float64(n)))
	l.set("runtime.gc_cycles", float64(b.gcs-a.gcs))
}
