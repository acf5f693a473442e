package core

import (
	"fmt"

	"repro/internal/forbidden"
)

// Rule identifies which rule of Algorithm 1 fired for a trace step.
type Rule int

const (
	// Rule1: the elementary pair is fully compatible with the resource, so
	// its usages are added to the resource.
	Rule1 Rule = 1
	// Rule2: the pair is partially compatible; a new resource is created
	// from the pair plus the compatible usages of the resource.
	Rule2 Rule = 2
	// Rule2Discard: the pair is incompatible with every usage of the
	// resource; the would-be new resource is the bare pair and is discarded.
	Rule2Discard Rule = -2
	// Rule3: no resource contains both usages of the pair, so the pair
	// itself becomes a new resource.
	Rule3 Rule = 3
	// Rule4: an operation whose only forbidden latency is the trivial
	// 0-self-contention gets a dedicated single-usage resource.
	Rule4 Rule = 4
)

func (r Rule) String() string {
	switch r {
	case Rule1:
		return "Rule 1 (fully compatible: add pair to resource)"
	case Rule2:
		return "Rule 2 (partially compatible: new resource)"
	case Rule2Discard:
		return "Rule 2 (incompatible: bare pair discarded)"
	case Rule3:
		return "Rule 3 (create resource from pair)"
	case Rule4:
		return "Rule 4 (single-usage resource)"
	}
	return fmt.Sprintf("Rule(%d)", int(r))
}

// TraceStep records one rule application while processing one elementary
// pair, for the Figure 3 rendering.
type TraceStep struct {
	Rule   Rule
	Before string // resource the rule was applied against ("" for Rules 3/4)
	After  string // resulting resource ("" when discarded)
}

// PairTrace records the processing of one elementary pair.
type PairTrace struct {
	Pair  ElemPair
	Steps []TraceStep
	// Set renders the full generating set after this pair was processed.
	Set []string
}

// Trace captures the step-by-step execution of the generating-set
// construction (Figure 3 of the paper). Pass nil to GeneratingSet to skip
// trace collection.
type Trace struct {
	OpName func(int) string
	Pairs  []PairTrace
}

// GeneratingSet executes Algorithm 1 of the paper: it builds a generating
// set of maximal resources for the forbidden-latency matrix m. The result
// forbids only latencies forbidden by m (soundness) and contains every
// maximal resource of the target machine, possibly alongside some
// submaximal ones (Theorem 1); Prune removes the latter.
//
// The construction is serial. Each elementary pair's rule applications
// mutate the set the next application reads, and the per-pair scan is
// small once dominated resources are gone: on the 2-vCPU reference host a
// worker pool that fanned the scans out took ~400ms on Cydra 5 against
// ~190ms serial, one fork/join per elementary pair. Three things keep the
// serial loop cheap: tombstoned resources are compacted out between
// pairs (order preserved), a 64-bit usage signature rejects most subset
// tests before the merge, and each Rule 2 candidate is built in a reused
// scratch resource that is copied only when it is registered.
func GeneratingSet(m *forbidden.Matrix, tr *Trace) []*Resource {
	opName := func(i int) string { return fmt.Sprintf("op%d", i) }
	if tr != nil && tr.OpName != nil {
		opName = tr.OpName
	}

	// G holds the live resources in creation order. Resources dominated
	// while one pair is processed are tombstoned in place and compacted
	// out before the next pair, so no scan walks over dead entries twice.
	var G []*Resource
	compact := func() {
		live := G[:0]
		for _, r := range G {
			if !r.dead {
				live = append(live, r)
			}
		}
		clear(G[len(live):])
		G = live
	}

	// admit reports whether r may join G, maintaining G as an antichain
	// under usage-set inclusion: r is rejected when a live superset
	// already exists (the superset serves as the growth seed in Theorem
	// 1's induction), and live subsets of r are tombstoned (they are
	// dominated — their generated latencies are a subset of r's, so the
	// final pruning would remove them anyway). This keeps the generating
	// set near the true number of maximal resources instead of
	// accumulating combinatorially many submaximal intermediates on dense
	// machines. admit does not append r: a scratch candidate must be
	// copied first.
	admit := func(r *Resource) bool {
		for _, q := range G {
			if q.dead {
				continue
			}
			if r.containedIn(q) {
				return false
			}
			if q.containedIn(r) {
				q.dead = true
			}
		}
		return true
	}
	register := func(r *Resource) bool {
		if !admit(r) {
			return false
		}
		G = append(G, r)
		return true
	}

	// cand is the Rule 2 scratch resource: the pair plus the usages of the
	// current resource compatible with both pair usages.
	var cand Resource

	for _, p := range elementaryPairs(m) {
		u0, u1 := p.usages()
		containsBoth := false
		var pt *PairTrace
		if tr != nil {
			pt = &PairTrace{Pair: p}
		}

		compact()
		snap := len(G) // resources created for this pair are not reprocessed with it
		for i := 0; i < snap; i++ {
			q := G[i]
			if q.dead {
				continue
			}
			// q's usages are unchanged since the pair started: a rule only
			// ever mutates the resource it is applied against.
			cand.reset()
			fully := true
			for _, u := range q.uses {
				if compat(m, u, u0) && compat(m, u, u1) {
					cand.push(u)
				} else {
					fully = false
				}
			}
			if fully {
				// Rule 1: add the pair's usages to q in place, then restore
				// the antichain (q may have converged onto or absorbed
				// another resource).
				before := ""
				if pt != nil {
					before = q.StringWith(opName)
				}
				q.add(u0)
				q.add(u1)
				for j, other := range G {
					if j == i || other.dead {
						continue
					}
					if q.containedIn(other) {
						q.dead = true
						break
					}
					if other.containedIn(q) {
						other.dead = true
					}
				}
				containsBoth = true
				if pt != nil {
					pt.Steps = append(pt.Steps, TraceStep{Rule1, before, q.StringWith(opName)})
				}
				continue
			}
			// Rule 2: consider a new resource = pair + compatible usages of
			// q. If that resource is simply the pair itself with no other
			// usages, it is discarded (Rule 3 decides later).
			cand.add(u0)
			cand.add(u1)
			if cand.NumUses() > 2 {
				var nr *Resource
				if admit(&cand) {
					nr = cand.clone()
					G = append(G, nr)
				}
				containsBoth = true // nr (or its live superset) contains both
				if pt != nil {
					after := ""
					if nr != nil {
						after = nr.StringWith(opName)
					}
					pt.Steps = append(pt.Steps, TraceStep{Rule2, q.StringWith(opName), after})
				}
			} else if pt != nil {
				pt.Steps = append(pt.Steps, TraceStep{Rule2Discard, q.StringWith(opName), ""})
			}
		}

		if !containsBoth {
			// Rule 3: the pair itself becomes a new resource.
			nr := newResource(u0, u1)
			register(nr)
			if pt != nil {
				pt.Steps = append(pt.Steps, TraceStep{Rule3, "", nr.StringWith(opName)})
			}
		}

		if pt != nil {
			for _, r := range G {
				if !r.dead {
					pt.Set = append(pt.Set, r.StringWith(opName))
				}
			}
			tr.Pairs = append(tr.Pairs, *pt)
		}
	}

	// Rule 4: operations whose only forbidden latency is the trivial
	// 0-self-contention need a dedicated single-usage resource; every other
	// resource-using operation appears in some elementary pair, which
	// already forbids its 0-self-contention.
	for x := 0; x < m.NumOps; x++ {
		if m.SelfOnly(x) {
			nr := newResource(encodeU(x, 0))
			if register(nr) && tr != nil {
				tr.Pairs = append(tr.Pairs, PairTrace{
					Pair:  ElemPair{X: x, Y: x, F: 0},
					Steps: []TraceStep{{Rule4, "", nr.StringWith(opName)}},
				})
			}
		}
	}

	compact()
	return G
}
