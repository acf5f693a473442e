package query

import "fmt"

// RangeQuerier is the optional range-query extension of Module: instead
// of probing candidate cycles one Check at a time, a range query answers
// "what is the first contention-free cycle in [lo, hi]?" in a single
// call. Both reserved-table representations implement it — the bitvector
// module bit-parallel (one cycle-bitmap window read per usage rules out
// up to 64 candidate cycles at a time, see verdict.go), the discrete
// module by row-scanning past the conflicting usage instead of
// re-probing cycle by cycle. Schedulers detect the capability by type
// assertion; modules without it (or wrapped in PerCycle) are probed one
// Check/CheckWithAlt at a time.
//
// Both functions answer exactly what the equivalent naive loop over
// Check/CheckWithAlt answers — same first feasible cycle, same
// alternative-group tie-break — so a scheduler produces byte-identical
// schedules whether or not its module answers range queries.
type RangeQuerier interface {
	// FirstFree returns the smallest cycle in [lo, hi] at which op can be
	// scheduled without contention, like probing Check(op, cycle) for
	// cycle = lo, lo+1, ... hi. An empty range (hi < lo) reports no slot.
	FirstFree(op, lo, hi int) (cycle int, ok bool)
	// FirstFreeWithAlt returns the smallest cycle in [lo, hi] at which
	// origOp or any of its alternatives fits, and the expanded-op index
	// of the first contention-free alternative at that cycle — exactly
	// the answer of probing CheckWithAlt(origOp, cycle) over the range.
	FirstFreeWithAlt(origOp, lo, hi int) (op, cycle int, ok bool)
}

// FirstFreeNaive is the reference implementation of FirstFree: a plain
// loop over Check. It is the semantics every RangeQuerier must match
// (the differential tests pin this) and the fallback for modules without
// range support. Work lands on the module's Check counters.
func FirstFreeNaive(m Module, op, lo, hi int) (int, bool) {
	for t := lo; t <= hi; t++ {
		if m.Check(op, t) {
			return t, true
		}
	}
	return 0, false
}

// FirstFreeWithAltNaive is the reference implementation of
// FirstFreeWithAlt: a plain loop over CheckWithAlt.
func FirstFreeWithAltNaive(m Module, origOp, lo, hi int) (int, int, bool) {
	for t := lo; t <= hi; t++ {
		if op, ok := m.CheckWithAlt(origOp, t); ok {
			return op, t, true
		}
	}
	return -1, 0, false
}

// PerCycle wraps m so that it answers only per-cycle queries: the
// wrapper hides RangeQuerier, so every scheduler slot scan over it falls
// back to one Check/CheckWithAlt probe per candidate cycle — the loop
// FirstFreeNaive and FirstFreeWithAltNaive spell out — while AltGroupOf
// is forwarded because IMS and the exact scheduler require it. It is the
// per-cycle oracle the range scans are tested and benchmarked against;
// m must implement AltGrouper, as every module in this package and
// automaton.PairModule do.
func PerCycle(m Module) Module { return perCycle{Module: m, AltGrouper: m.(AltGrouper)} }

type perCycle struct {
	Module
	AltGrouper
}

// RangeProbes returns how many Check probes the naive FirstFree loop
// would have issued: one per candidate up to and including the hit, or
// the whole range on a miss. It is exported so range-capable backends
// outside this package (the automaton pair module) account their
// FirstFreeCycles with exactly the same arithmetic — the invariant that
// keeps the paper's work-per-check metric scan-strategy- and
// representation-independent.
func RangeProbes(lo, hi, cycle int, ok bool) int64 {
	if ok {
		return int64(cycle - lo + 1)
	}
	if hi < lo {
		return 0
	}
	return int64(hi - lo + 1)
}

// RangeProbesAlt is RangeProbes for FirstFreeWithAlt: the naive loop
// tries every alternative at each failing cycle and stops at the first
// free alternative (position altIdx in the group) of the hit cycle.
// Keeping this arithmetic exact is what preserves the scheduler's
// checks-per-decision statistic across scan strategies.
func RangeProbesAlt(lo, hi, cycle, altIdx, group int, ok bool) int64 {
	if ok {
		return int64(cycle-lo)*int64(group) + int64(altIdx) + 1
	}
	if hi < lo {
		return 0
	}
	return int64(hi-lo+1) * int64(group)
}

// --- Bitvector: bit-parallel range scan ---

// FirstFree implements RangeQuerier.
func (b *Bitvector) FirstFree(op, lo, hi int) (int, bool) {
	b.ctr.FirstFreeCalls++
	w0, s0, v0 := b.ctr.FirstFreeWork, b.ctr.FirstFreeSkips, b.ctr.FirstFreeVerdictWords
	cycle, ok := b.firstFree(op, lo, hi)
	b.ctr.FirstFreeCycles += RangeProbes(lo, hi, cycle, ok)
	b.met.OnFirstFree(b.ctr.FirstFreeWork-w0, b.ctr.FirstFreeSkips-s0)
	b.met.OnVerdictWords(b.ctr.FirstFreeVerdictWords - v0)
	return cycle, ok
}

func (b *Bitvector) firstFree(op, lo, hi int) (int, bool) {
	if b.ii == 0 && lo < 0 {
		panic(fmt.Sprintf("query: negative cycle %d on linear reserved table", lo))
	}
	if hi < lo {
		return 0, false
	}
	if b.c.selfConf[op] {
		b.ctr.FirstFreeWork++
		return 0, false
	}
	if i := b.verdictFree(op, lo, b.effectiveHi(lo, hi)-lo+1); i >= 0 {
		return lo + i, true
	}
	return 0, false
}

// effectiveHi caps a modulo scan at one full MRT period: columns repeat
// with period II, so if none of lo .. lo+II-1 is free no later cycle is
// either.
func (b *Bitvector) effectiveHi(lo, hi int) int {
	if b.ii > 0 && hi > lo+b.ii-1 {
		return lo + b.ii - 1
	}
	return hi
}

// FirstFreeWithAlt implements RangeQuerier.
func (b *Bitvector) FirstFreeWithAlt(origOp, lo, hi int) (int, int, bool) {
	if origOp < 0 || origOp >= len(b.e.AltGroup) {
		panic(fmt.Sprintf("query: FirstFreeWithAlt: original op index %d out of range", origOp))
	}
	if b.ii == 0 && lo < 0 {
		panic(fmt.Sprintf("query: negative cycle %d on linear reserved table", lo))
	}
	b.ctr.FirstFreeWithAltCalls++
	b.met.OnFirstFreeWithAlt()
	group := b.e.AltGroup[origOp]
	w0, s0, v0 := b.ctr.FirstFreeWork, b.ctr.FirstFreeSkips, b.ctr.FirstFreeVerdictWords
	op, cycle, altIdx, ok := b.firstFreeAlt(group, lo, hi)
	b.ctr.FirstFreeCycles += RangeProbesAlt(lo, hi, cycle, altIdx, len(group), ok)
	b.met.OnFirstFree(b.ctr.FirstFreeWork-w0, b.ctr.FirstFreeSkips-s0)
	b.met.OnVerdictWords(b.ctr.FirstFreeVerdictWords - v0)
	return op, cycle, ok
}

func (b *Bitvector) firstFreeAlt(group []int, lo, hi int) (int, int, int, bool) {
	if hi < lo {
		return -1, 0, 0, false
	}
	hiEff := b.effectiveHi(lo, hi)
	// Candidates are processed in 64-cycle chunks, one verdict word per
	// alternative each, so a group whose early alternatives are congested
	// does not scan the whole range before a later alternative gets a
	// chance near lo.
	const chunk = 64
	for t0 := lo; t0 <= hiEff; t0 += chunk {
		L := chunk
		if t0+L-1 > hiEff {
			L = hiEff - t0 + 1
		}
		if op, off, ai, ok := b.verdictAltChunk(group, t0, L); ok {
			return op, t0 + off, ai, true
		}
	}
	return -1, 0, 0, false
}

var _ RangeQuerier = (*Bitvector)(nil)

// --- Discrete: row-scan range search ---

// FirstFree implements RangeQuerier.
func (d *Discrete) FirstFree(op, lo, hi int) (int, bool) {
	d.ctr.FirstFreeCalls++
	w0 := d.ctr.FirstFreeWork
	cycle, ok := d.firstFree(op, lo, hi)
	d.ctr.FirstFreeCycles += RangeProbes(lo, hi, cycle, ok)
	d.met.OnFirstFree(d.ctr.FirstFreeWork-w0, 0)
	return cycle, ok
}

func (d *Discrete) firstFree(op, lo, hi int) (int, bool) {
	if d.ii == 0 && lo < 0 {
		panic(fmt.Sprintf("query: negative cycle %d on linear reserved table", lo))
	}
	if hi < lo {
		return 0, false
	}
	if d.c.selfConf[op] {
		d.ctr.FirstFreeWork++
		return 0, false
	}
	hiEff := d.effectiveHi(lo, hi)
	for t := lo; t <= hiEff; {
		adv, free := d.probeAdvance(op, t)
		if free {
			return t, true
		}
		if adv < 0 {
			return 0, false
		}
		t += adv
	}
	return 0, false
}

func (d *Discrete) effectiveHi(lo, hi int) int {
	if d.ii > 0 && hi > lo+d.ii-1 {
		return lo + d.ii - 1
	}
	return hi
}

// cellAt reads a reserved-table cell without growing linear tables:
// cycles beyond the current width are trivially free. Range queries must
// not mutate the module, both for zero-allocation scans and because a
// failed probe far in the future should not inflate the table.
func (d *Discrete) cellAt(r, cycle int) int32 {
	if d.ii > 0 {
		c := cycle % d.ii
		if c < 0 {
			c += d.ii
		}
		return d.cells[r*d.width+c]
	}
	if cycle >= d.width {
		return -1
	}
	return d.cells[r*d.width+cycle]
}

// probeAdvance walks op's usages at candidate cycle t. A contention-free
// walk reports (0, true). Otherwise it forward-scans the row of the
// first conflicting usage for its next free column and reports how far
// the candidate must advance before that usage clears — every skipped
// intermediate candidate provably conflicts on the same usage, so the
// jump preserves the exact first-free cycle. On a Modulo Reservation
// Table a fully reserved row reports -1: the usage can never clear at
// this II. Every cell examined, probe or row scan, is one work unit.
func (d *Discrete) probeAdvance(op, t int) (int, bool) {
	for _, u := range d.uses(op) {
		d.ctr.FirstFreeWork++
		if d.cellAt(u.Resource, t+u.Cycle) < 0 {
			continue
		}
		if d.ii > 0 {
			for delta := 1; delta < d.ii; delta++ {
				d.ctr.FirstFreeWork++
				if d.cellAt(u.Resource, t+u.Cycle+delta) < 0 {
					return delta, false
				}
			}
			return -1, false
		}
		for delta := 1; ; delta++ {
			c := t + u.Cycle + delta
			if c >= d.width {
				return delta, false // beyond the table: free
			}
			d.ctr.FirstFreeWork++
			if d.cells[u.Resource*d.width+c] < 0 {
				return delta, false
			}
		}
	}
	return 0, true
}

// probeFree is probeAdvance without the row scan: a plain usage walk
// answering only free/blocked. firstFreeAlt switches to it once the
// group's advance floor of 1 is established — knowing how far a later
// alternative's blockage extends can no longer change the minimum.
func (d *Discrete) probeFree(op, t int) bool {
	for _, u := range d.uses(op) {
		d.ctr.FirstFreeWork++
		if d.cellAt(u.Resource, t+u.Cycle) >= 0 {
			return false
		}
	}
	return true
}

// FirstFreeWithAlt implements RangeQuerier.
func (d *Discrete) FirstFreeWithAlt(origOp, lo, hi int) (int, int, bool) {
	if origOp < 0 || origOp >= len(d.e.AltGroup) {
		panic(fmt.Sprintf("query: FirstFreeWithAlt: original op index %d out of range", origOp))
	}
	if d.ii == 0 && lo < 0 {
		panic(fmt.Sprintf("query: negative cycle %d on linear reserved table", lo))
	}
	d.ctr.FirstFreeWithAltCalls++
	d.met.OnFirstFreeWithAlt()
	group := d.e.AltGroup[origOp]
	w0 := d.ctr.FirstFreeWork
	op, cycle, altIdx, ok := d.firstFreeAlt(group, lo, hi)
	d.ctr.FirstFreeCycles += RangeProbesAlt(lo, hi, cycle, altIdx, len(group), ok)
	d.met.OnFirstFree(d.ctr.FirstFreeWork-w0, 0)
	return op, cycle, ok
}

func (d *Discrete) firstFreeAlt(group []int, lo, hi int) (int, int, int, bool) {
	if hi < lo {
		return -1, 0, 0, false
	}
	hiEff := d.effectiveHi(lo, hi)
	for t := lo; t <= hiEff; {
		// Alternatives are probed in group order so the first free one at
		// the hit cycle matches the naive CheckWithAlt tie-break. A
		// blocked alternative contributes the cycle its blocking usage
		// clears; the minimum over the group is the next candidate where
		// anything can change.
		adv := -1
		for ai, op := range group {
			if d.c.selfConf[op] {
				d.ctr.FirstFreeWork++
				continue
			}
			if adv == 1 {
				// The advance floor is already 1; only the free/blocked
				// answer matters for the remaining alternatives.
				if d.probeFree(op, t) {
					return op, t, ai, true
				}
				continue
			}
			a, free := d.probeAdvance(op, t)
			if free {
				return op, t, ai, true
			}
			if a > 0 && (adv < 0 || a < adv) {
				adv = a
			}
		}
		if adv < 0 {
			return -1, 0, 0, false
		}
		t += adv
	}
	return -1, 0, 0, false
}

var _ RangeQuerier = (*Discrete)(nil)
