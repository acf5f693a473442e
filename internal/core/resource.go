// Package core implements the machine-description reduction of
// Eichenberger & Davidson (PLDI 1996) — the paper's primary contribution.
//
// Given the forbidden-latency matrix of a target machine (package
// forbidden), the reduction proceeds in two steps:
//
//   - Step 2 (GeneratingSet): build the generating set of maximal
//     resources by processing elementary usage pairs with Rules 1-4 of
//     Algorithm 1. A maximal resource is a synthesized resource that (a)
//     forbids only latencies forbidden in the target machine and (b) admits
//     no additional usage without forbidding a latency the target machine
//     does not forbid.
//
//   - Step 3 (Prune + SelectCover): prune dominated resources, then select
//     a subset of the remaining resources and their usages that covers
//     every forbidden latency, minimizing an objective chosen for the
//     scheduler's internal representation (res-uses for a discrete
//     reserved table, k-cycle-word uses for a packed bitvector table).
//
// The resulting reduced machine description generates exactly the same
// forbidden-latency matrix as the original and therefore answers every
// contention query identically; Verify checks this by reconstruction.
package core

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"repro/internal/forbidden"
)

// U is a resource usage within a synthesized resource: operation (class) Op
// uses the resource in cycle Cycle.
type U struct {
	Op    int
	Cycle int
}

const cycleBits = 15
const cycleMask = 1<<cycleBits - 1

func encodeU(op, cycle int) uint32 {
	if cycle < 0 || cycle > cycleMask {
		panic(fmt.Sprintf("core: usage cycle %d out of range", cycle))
	}
	return uint32(op)<<cycleBits | uint32(cycle)
}

func decodeU(e uint32) U {
	return U{Op: int(e >> cycleBits), Cycle: int(e & cycleMask)}
}

// Resource is a synthesized resource under construction: a set of mutually
// compatible usages, stored as a sorted slice of encoded usages. The slice
// representation keeps the generating-set inner loops (compatibility scans,
// subset checks, antichain maintenance) on linear cache-friendly merges
// with zero map operations — the maps this replaced dominated the
// reduction pipeline's profile. All resources built by the generating-set
// algorithm have their earliest usage in cycle 0 (the paper's canonical
// form).
type Resource struct {
	uses []uint32 // sorted ascending (encoded (op, cycle) order)
	// sig is the OR of sigBit over uses: a resource whose signature has a
	// bit outside another's cannot be its subset, which rejects most
	// generating-set subset tests without the merge.
	sig  uint64
	dead bool // dominated within the current elementary pair; compacted out
}

// sigBit hashes a usage onto one of the signature's 64 bits
// (multiplicative hashing; the top 6 bits of the product).
func sigBit(u uint32) uint64 { return 1 << ((u * 0x9E3779B1) >> 26) }

func newResource(us ...uint32) *Resource {
	r := &Resource{uses: make([]uint32, 0, len(us))}
	for _, u := range us {
		r.add(u)
	}
	return r
}

// reset empties r for reuse as a scratch resource, keeping its capacity.
func (r *Resource) reset() {
	r.uses = r.uses[:0]
	r.sig = 0
}

// push appends u, which must sort after every usage already in r.
func (r *Resource) push(u uint32) {
	r.uses = append(r.uses, u)
	r.sig |= sigBit(u)
}

// clone returns an independent copy of r with exactly sized storage.
func (r *Resource) clone() *Resource {
	return &Resource{uses: append([]uint32(nil), r.uses...), sig: r.sig}
}

// containedIn reports whether every usage of r is in q: a signature test,
// then a linear merge over the sorted usage slices.
func (r *Resource) containedIn(q *Resource) bool {
	if len(r.uses) > len(q.uses) || r.sig&^q.sig != 0 {
		return false
	}
	j := 0
	for _, u := range r.uses {
		for j < len(q.uses) && q.uses[j] < u {
			j++
		}
		if j >= len(q.uses) || q.uses[j] != u {
			return false
		}
		j++
	}
	return true
}

func (r *Resource) has(u uint32) bool {
	i := sort.Search(len(r.uses), func(i int) bool { return r.uses[i] >= u })
	return i < len(r.uses) && r.uses[i] == u
}

// add inserts u in sorted position (no-op when present). Resources stay
// small (tens of usages), so the O(n) insertion loses to no map here.
func (r *Resource) add(u uint32) {
	i := sort.Search(len(r.uses), func(i int) bool { return r.uses[i] >= u })
	if i < len(r.uses) && r.uses[i] == u {
		return
	}
	r.uses = append(r.uses, 0)
	copy(r.uses[i+1:], r.uses[i:])
	r.uses[i] = u
	r.sig |= sigBit(u)
}

// NumUses returns the number of usages in the resource.
func (r *Resource) NumUses() int { return len(r.uses) }

// Uses returns the usages sorted by (cycle, op).
func (r *Resource) Uses() []U {
	out := make([]U, 0, len(r.uses))
	for _, e := range r.uses {
		out = append(out, decodeU(e))
	}
	slices.SortFunc(out, func(a, b U) int {
		if a.Cycle != b.Cycle {
			return a.Cycle - b.Cycle
		}
		return a.Op - b.Op
	})
	return out
}

// StringWith renders the resource as "{A@0, B@2}" using opName for labels.
// Figure 3 traces render every live resource after every elementary pair,
// so this appends bytes directly instead of going through fmt.
func (r *Resource) StringWith(opName func(int) string) string {
	b := make([]byte, 0, 2+8*len(r.uses))
	b = append(b, '{')
	for i, u := range r.Uses() {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, opName(u.Op)...)
		b = append(b, '@')
		b = strconv.AppendInt(b, int64(u.Cycle), 10)
	}
	return string(append(b, '}'))
}

// compat reports whether two usages may coexist in one synthesized resource:
// the latency their collision would forbid must already be forbidden in the
// target machine. Usages (X, cx) and (Y, cy) sharing a resource forbid
// latency (cy - cx) in F[X][Y].
func compat(m *forbidden.Matrix, a, b uint32) bool {
	ua, ub := decodeU(a), decodeU(b)
	return m.Forbidden(ua.Op, ub.Op, ub.Cycle-ua.Cycle)
}

// ElemPair is the elementary pair associated with a non-negative forbidden
// latency F in F[X][Y]: a usage by X in cycle 0 and a usage by Y in cycle F.
type ElemPair struct {
	X, Y, F int
}

func (p ElemPair) usages() (u0, u1 uint32) {
	return encodeU(p.X, 0), encodeU(p.Y, p.F)
}

// elementaryPairs lists the elementary pairs of the matrix in deterministic
// order (ascending latency, then operation indices), excluding pairs for
// negative latencies (redundant by symmetry), the 0 self-contention
// latencies (handled by Rule 4), and one of the two mirror-image orderings
// of each latency-0 cross pair.
func elementaryPairs(m *forbidden.Matrix) []ElemPair {
	var pairs []ElemPair
	for x := 0; x < m.NumOps; x++ {
		for y := 0; y < m.NumOps; y++ {
			m.Set(x, y).ForEach(func(f int) bool {
				if f < 0 {
					return true
				}
				if f == 0 && (x == y || x > y) {
					return true // self-contention or mirror duplicate
				}
				pairs = append(pairs, ElemPair{X: x, Y: y, F: f})
				return true
			})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		a, b := pairs[i], pairs[j]
		if a.F != b.F {
			return a.F < b.F
		}
		if a.X != b.X {
			return a.X < b.X
		}
		return a.Y < b.Y
	})
	return pairs
}
