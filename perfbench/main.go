// Command perfbench is the scheduling stack's seeded benchmark. One
// invocation runs one workload (or every workload with -workload all)
// on inputs generated from -seed, measures for -seconds, checks every
// output against an independent oracle, and prints one JSON result as
// its last line of standard output.
//
// With -trace 0 the result carries the end-to-end metrics a user of the
// stack sees; with -trace 1 a separate traced run times each layer from
// outside, through its public API, and carries the per-layer metrics.
// README.md records why each workload exists and which end-to-end metric
// each per-layer metric should move.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload ims-cydra5 --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

// metric is one named measurement with its unit.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// result is what one workload run reports: problems attempted and
// failed (a failure is an unscheduled problem or any output that
// disagrees with its oracle), human-readable notes, and its metrics.
type result struct {
	attempted, failed int
	errs              []string
	notes             []string
	metrics           []metric
}

func (r *result) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name, v, unit})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records one failed problem with its reason (only the first few
// reasons are kept; the count is exact).
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// options are the command-line knobs every workload receives.
type options struct {
	seed    int64
	seconds float64
}

// workload runs one workload untraced (end-to-end metrics) or traced
// (per-layer metrics).
type workload struct {
	name string
	run  func(o options, traced bool) (*result, error)
}

var workloads = []workload{
	{"ims-cydra5", runIMS},
	{"optimal-cydra5", runOptimal},
	{"acyclic-parisc", runAcyclic},
	{"mdserve-schedule", runServe},
}

func main() {
	name := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "input seed: the same seed generates the same inputs")
	seconds := flag.Float64("seconds", 10, "measurement time per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds}
	printHost()

	var out *result
	var err error
	if *name == "all" {
		out, err = runAll(o)
	} else {
		w := lookup(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		out, err = w.run(o, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !emit(out) {
		os.Exit(1)
	}
}

func lookup(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runAll runs every workload untraced and then traced, prefixing each
// metric with its workload's name.
func runAll(o options) (*result, error) {
	all := &result{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r, err := w.run(o, traced)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			all.attempted += r.attempted
			all.failed += r.failed
			all.errs = append(all.errs, r.errs...)
			for _, n := range r.notes {
				all.note("%s: %s", w.name, n)
			}
			for _, m := range r.metrics {
				all.add(w.name+"/"+m.Name, m.Value, m.Unit)
			}
		}
	}
	return all, nil
}

// emit prints the notes, one line per metric, and the final JSON result
// line. It reports whether the run was correct.
func emit(r *result) bool {
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	for _, e := range r.errs {
		fmt.Println("# FAIL:", e)
	}
	if r.attempted > 0 {
		fmt.Printf("# failed_frac %.6f (%d of %d)\n", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	}
	ms := make(map[string]any, len(r.metrics))
	for _, m := range r.metrics {
		fmt.Printf("# %-44s %18.6f %s\n", m.Name, m.Value, m.Unit)
		ms[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	correct := r.failed == 0 && len(r.errs) == 0 && r.attempted > 0
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   ms,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return false
	}
	fmt.Println(string(line))
	return correct
}

// printHost records the host shape every result was measured on.
func printHost() {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.modified" && s.Value == "true" {
				rev += "+dirty"
			}
		}
	}
	host, _ := json.Marshal(map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"revision":   rev,
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	})
	fmt.Println("# host", string(host))
}
