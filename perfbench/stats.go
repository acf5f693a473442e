package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// minSetups is the fewest cold set-ups a measured run times, in groups
// of setupGroup consecutive ones.
const (
	minSetups  = 16
	setupGroup = 4
)

// minPasses is the fewest measured passes a run makes, however long
// each takes.
const minPasses = 3

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

// tailQuantile picks the highest of p90, p99, p99.9 and p99.99 that
// leaves at least ten of n samples beyond it, and names it. It depends
// only on n, which each workload fixes, so every run of a workload
// reports the same percentile.
func tailQuantile(n int) (float64, string) {
	q, name := 0.5, "p50"
	for _, c := range []struct {
		q    float64
		name string
	}{{0.9, "p90"}, {0.99, "p99"}, {0.999, "p99.9"}, {0.9999, "p99.99"}} {
		if float64(n)*(1-c.q) >= 10-1e-9 { // 1-q is inexact in binary
			q, name = c.q, c.name
		}
	}
	return q, name
}

// passTimes is what a measured run records: the wall time of every
// pass and, per problem, the fastest time it took over all passes.
//
// On the 2-vCPU host this benchmark was built on, each vCPU slows down
// by 1.6-1.8x for seconds at a time, often both together (other
// tenants). A median over one run samples those phases; passes that
// alternate between the CPUs, reduced to the fastest pass and each
// problem's fastest time, filter them.
type passTimes struct {
	walls  []float64 // seconds per pass
	minLat []float64 // seconds per problem, minimum over passes
}

// measure runs passes over n problems until seconds have elapsed (and
// at least minPasses, and st has timed at least minSetups set-ups),
// timing every problem. Pass k runs pinned to the k-th allowed CPU,
// round robin, and is followed on the same CPU by one timed set-up.
func measure(seconds float64, n int, st *setupTimer, problem func(i int)) passTimes {
	pt := passTimes{minLat: make([]float64, n)}
	for i := range pt.minLat {
		pt.minLat[i] = math.Inf(1)
	}
	cpus := allowedCPUs()
	start := time.Now()
	for len(pt.walls) < minPasses || len(st.times) < minSetups || time.Since(start).Seconds() < seconds {
		pass := func() {
			p0 := time.Now()
			for i := 0; i < n; i++ {
				t0 := time.Now()
				problem(i)
				if d := time.Since(t0).Seconds(); d < pt.minLat[i] {
					pt.minLat[i] = d
				}
			}
			pt.walls = append(pt.walls, time.Since(p0).Seconds())
			st.once()
		}
		onCPUOf(cpus, len(pt.walls), pass)
	}
	return pt
}

// onCPUOf runs f pinned to the k-th of cpus, round robin, or unpinned
// when cpus is empty.
func onCPUOf(cpus []int, k int, f func()) {
	if len(cpus) == 0 {
		f()
		return
	}
	onCPU(cpus[k%len(cpus)], f)
}

// latency is the median and the tail of a workload's latencies, in
// seconds; the note says what they were taken over.
type latency struct {
	p50, tail float64
	note      string
}

// latencyOf takes the median and the tail of xs. The tail is the
// highest of p90, p99, p99.9 and p99.99 with at least ten samples
// beyond it.
func latencyOf(xs []float64, what string) latency {
	q, name := tailQuantile(len(xs))
	return latency{median(xs), quantile(xs, q), fmt.Sprintf("%s of %d %s", name, len(xs), what)}
}

// endToEnd appends the timing end-to-end metrics shared by every
// workload: set-up, throughput, and the median and tail of latency.
func endToEnd(r *result, st *setupTimer, throughput float64, lat latency, walls []float64) {
	r.add("setup_s", st.value(), "s")
	r.add("throughput_per_s", throughput, "1/s")
	r.add("latency_p50_ms", 1e3*lat.p50, "ms")
	r.add("latency_tail_ms", 1e3*lat.tail, "ms")
	r.note("latency_tail_ms is the %s; %d passes, fastest %.4fs, median %.4fs; %d set-ups, %.4fs to %.4fs",
		lat.note, len(walls), minOf(walls), median(walls), len(st.times), minOf(st.times), quantile(st.times, 1))
}

// sequentialThroughput is problems per second of a workload that runs
// one problem at a time: the problem count over the sum of per-problem
// fastest times.
func sequentialThroughput(pt passTimes) float64 {
	var sum float64
	for _, d := range pt.minLat {
		sum += d
	}
	return float64(len(pt.minLat)) / sum
}

// liveHeap returns the live heap in bytes after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// retainedMB is the live heap growth since before, in MiB.
func retainedMB(before uint64) float64 {
	return (float64(liveHeap()) - float64(before)) / (1 << 20)
}

// setupTimer times cold set-ups spread over a measured run, one after
// each pass on the CPU the pass ran on, so they sample the same host
// phases the passes do (see passTimes). The products are dropped.
//
// The collector is off while a set-up runs and a full collection comes
// before and after it, untimed. In this process the heap holds the
// benchmark's inputs, and collecting them is no part of a cold start;
// with the collector on, each set-up paid for one to two cycles over
// them.
type setupTimer struct {
	setup func() error
	times []float64 // seconds per set-up, in order
	err   error
}

func newSetupTimer[T any](setup func() (T, error)) *setupTimer {
	return &setupTimer{setup: func() error { _, err := setup(); return err }}
}

// once times one set-up on the calling thread.
func (st *setupTimer) once() {
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	t0 := time.Now()
	err := st.setup()
	st.times = append(st.times, time.Since(t0).Seconds())
	debug.SetGCPercent(gc)
	runtime.GC()
	if err != nil && st.err == nil {
		st.err = fmt.Errorf("set-up: %w", err)
	}
}

// value is setup_s: every setupGroup consecutive set-ups (on
// alternating CPUs) form a group counted at its fastest; setup_s is the
// median over the groups.
func (st *setupTimer) value() float64 {
	var groups []float64
	for lo := 0; lo+setupGroup <= len(st.times); lo += setupGroup {
		groups = append(groups, minOf(st.times[lo:lo+setupGroup]))
	}
	return median(groups)
}

// digest hashes schedules into one comparable value (FNV-1a over
// integers, with a separator after each group).
type digest struct{ h uint64 }

func newDigest() *digest { return &digest{h: 14695981039346656037} }

func (d *digest) ints(xs ...int) {
	for _, x := range xs {
		d.h ^= uint64(x)
		d.h *= 1099511628211
	}
	d.h ^= 0xff
	d.h *= 1099511628211
}

// schedule hashes one schedule: its length (II or makespan), its lower
// bound, and the per-node issue times and alternatives.
func (d *digest) schedule(length, bound int, time, alt []int) {
	d.ints(length, bound)
	d.ints(time...)
	d.ints(alt...)
}

// ratio divides, reading 0 when the denominator is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
