package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/forbidden"
	"repro/internal/machines"
	"repro/internal/resmodel"
)

// classMatrix returns the class-collapsed forbidden-latency matrix of e,
// the input GeneratingSet runs on inside the reduction.
func classMatrix(e *resmodel.Expanded) *forbidden.Matrix {
	m := forbidden.Compute(e)
	return m.Collapse(m.ComputeClasses())
}

// sameGeneratingSet reports the first difference between the production
// generating set of cm and the reference oracle's — resource order,
// usages, signatures and the full trace — or "" when they agree.
func sameGeneratingSet(cm *forbidden.Matrix) string {
	names := make([]string, cm.NumOps)
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
	}
	opName := func(i int) string { return names[i] }
	gotTr, wantTr := Trace{OpName: opName}, Trace{OpName: opName}
	got := GeneratingSet(cm, &gotTr)
	want := referenceGeneratingSet(cm, &wantTr)
	if len(got) != len(want) {
		return "resource count differs"
	}
	for i := range got {
		if !slices.Equal(got[i].uses, want[i].uses) {
			return "resource usages or order differ"
		}
		if got[i].dead {
			return "dead resource returned"
		}
		var sig uint64
		for _, u := range got[i].uses {
			sig |= sigBit(u)
		}
		if got[i].sig != sig {
			return "stale usage signature"
		}
	}
	if !reflect.DeepEqual(gotTr.Pairs, wantTr.Pairs) {
		return "trace differs"
	}
	return ""
}

// TestGeneratingSetMatchesReference: the compacting, signature-filtered,
// scratch-candidate GeneratingSet builds exactly the pre-rewrite oracle's
// set — same resources, same order, same usages, same Figure 3 trace —
// on every built-in machine and on random machines.
func TestGeneratingSetMatchesReference(t *testing.T) {
	for _, name := range machines.Names() {
		if d := sameGeneratingSet(classMatrix(machines.ByName(name).Expand())); d != "" {
			t.Errorf("%s: %s", name, d)
		}
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		return sameGeneratingSet(classMatrix(resmodel.Random(rng, resmodel.DefaultRandomConfig()).Expand())) == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestGeneratingSetAllocs pins the scratch-candidate design: a Rule 2
// candidate is allocated only when it is registered, so one generating
// set on the Cydra 5 class matrix stays within 10,000 allocations
// (allocating every candidate costs ~475,000).
func TestGeneratingSetAllocs(t *testing.T) {
	cm := classMatrix(machines.Cydra5().Expand())
	allocs := testing.AllocsPerRun(2, func() { GeneratingSet(cm, nil) })
	if allocs > 10_000 {
		t.Errorf("GeneratingSet on Cydra 5 makes %.0f allocs/op, want <= 10000", allocs)
	}
}

func BenchmarkGeneratingSetCydra5(b *testing.B) {
	cm := classMatrix(machines.Cydra5().Expand())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GeneratingSet(cm, nil)
	}
}
