package main

import (
	"fmt"
	"time"

	"repro/internal/query"
	"repro/internal/sched"
)

// Query op kinds the traced module times, in metric-name order.
const (
	opCheck = iota
	opAssign
	opAssignFree
	opFree
	opCheckWithAlt
	opFirstFree
	opFirstFreeAlt
	opReset
	numOps
)

var opNames = [numOps]string{"check", "assign", "assign_free", "free", "check_with_alt", "first_free", "first_free_alt", "reset"}

// opStat accumulates one op kind: calls, wall time inside the module,
// and Table 6 work units (query.Counters work-field deltas).
type opStat struct{ calls, ns, work int64 }

// queryTrace is the per-op record shared by every module a traced
// factory builds.
type queryTrace struct {
	ops     [numOps]opStat
	modules []*timedModule
}

func (qt *queryTrace) totalNS() int64 {
	var ns int64
	for _, s := range qt.ops {
		ns += s.ns
	}
	return ns
}

// stateBytes is the mean reserved-state storage of the modules built.
func (qt *queryTrace) stateBytes() float64 {
	n := 0
	for _, m := range qt.modules {
		n += m.StateBytes()
	}
	return ratio(float64(n), float64(len(qt.modules)))
}

// factory wraps every module inner builds in a timedModule.
func (qt *queryTrace) factory(inner sched.ModuleFactory) sched.ModuleFactory {
	return func(ii int) query.Module {
		m := newTimedModule(inner(ii), qt)
		qt.modules = append(qt.modules, m)
		return m
	}
}

// timedModule times every call into a query module from outside. It
// implements each optional extension the schedulers assert for
// (RangeQuerier, AltGrouper, MemoryFootprint), so a traced run takes
// exactly the code paths of an untraced one; the traced run checks that
// by comparing schedule digests and summed counters.
type timedModule struct {
	m  query.Module
	rq query.RangeQuerier
	ag query.AltGrouper
	mf query.MemoryFootprint
	qt *queryTrace
}

func newTimedModule(m query.Module, qt *queryTrace) *timedModule {
	rq, ok1 := m.(query.RangeQuerier)
	ag, ok2 := m.(query.AltGrouper)
	mf, ok3 := m.(query.MemoryFootprint)
	if !ok1 || !ok2 || !ok3 {
		// Every backend the workloads select implements all three; a
		// wrapper missing one would silently change scheduler paths.
		panic(fmt.Sprintf("perfbench: %T lacks a query extension (range %v, alt %v, footprint %v)", m, ok1, ok2, ok3))
	}
	return &timedModule{m: m, rq: rq, ag: ag, mf: mf, qt: qt}
}

func (t *timedModule) work() int64 {
	c := t.m.Counters()
	return c.CheckWork + c.AssignWork + c.AssignFreeWork + c.FreeWork + c.FirstFreeWork
}

func (t *timedModule) done(op int, t0 time.Time, w0 int64) {
	d := time.Since(t0).Nanoseconds()
	s := &t.qt.ops[op]
	s.calls++
	s.ns += d
	s.work += t.work() - w0
}

func (t *timedModule) Check(op, cycle int) bool {
	w0, t0 := t.work(), time.Now()
	ok := t.m.Check(op, cycle)
	t.done(opCheck, t0, w0)
	return ok
}

func (t *timedModule) Assign(op, cycle, id int) {
	w0, t0 := t.work(), time.Now()
	t.m.Assign(op, cycle, id)
	t.done(opAssign, t0, w0)
}

func (t *timedModule) AssignFree(op, cycle, id int) []int {
	w0, t0 := t.work(), time.Now()
	ev := t.m.AssignFree(op, cycle, id)
	t.done(opAssignFree, t0, w0)
	return ev
}

func (t *timedModule) Free(op, cycle, id int) {
	w0, t0 := t.work(), time.Now()
	t.m.Free(op, cycle, id)
	t.done(opFree, t0, w0)
}

func (t *timedModule) CheckWithAlt(origOp, cycle int) (int, bool) {
	w0, t0 := t.work(), time.Now()
	op, ok := t.m.CheckWithAlt(origOp, cycle)
	t.done(opCheckWithAlt, t0, w0)
	return op, ok
}

func (t *timedModule) FirstFree(op, lo, hi int) (int, bool) {
	w0, t0 := t.work(), time.Now()
	c, ok := t.rq.FirstFree(op, lo, hi)
	t.done(opFirstFree, t0, w0)
	return c, ok
}

func (t *timedModule) FirstFreeWithAlt(origOp, lo, hi int) (int, int, bool) {
	w0, t0 := t.work(), time.Now()
	op, c, ok := t.rq.FirstFreeWithAlt(origOp, lo, hi)
	t.done(opFirstFreeAlt, t0, w0)
	return op, c, ok
}

// Reset clears the module's counters, so it is charged time but no work.
func (t *timedModule) Reset() {
	t0 := time.Now()
	t.m.Reset()
	s := &t.qt.ops[opReset]
	s.calls++
	s.ns += time.Since(t0).Nanoseconds()
}

func (t *timedModule) Schedulable(op int) bool     { return t.m.Schedulable(op) }
func (t *timedModule) Counters() *query.Counters   { return t.m.Counters() }
func (t *timedModule) AltGroupOf(origOp int) []int { return t.ag.AltGroupOf(origOp) }
func (t *timedModule) StateBytes() int             { return t.mf.StateBytes() }
