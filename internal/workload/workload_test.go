package workload

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/vm"
)

const smokeBudget = 300_000

func runStats(t *testing.T, w *Workload, budget int64) *trace.Stats {
	t.Helper()
	src := w.Open()
	st := trace.NewStats().Consume(trace.NewLimit(src, budget))
	if l, ok := src.(*vm.Looping); ok {
		if err := l.Err(); err != nil {
			t.Fatalf("%s: VM fault: %v", w.Name, err)
		}
	}
	return st
}

func TestAllWorkloadsRun(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			st := runStats(t, w, smokeBudget)
			if st.Instructions != smokeBudget {
				t.Fatalf("got %d instructions, want %d (program halted early or faulted)",
					st.Instructions, smokeBudget)
			}
			if st.Branches == 0 || st.IndJumps == 0 {
				t.Fatalf("no control flow: %+v", st)
			}
			branchFrac := float64(st.Branches) / float64(st.Instructions)
			if branchFrac < 0.05 || branchFrac > 0.45 {
				t.Errorf("branch fraction %.3f out of plausible range", branchFrac)
			}
			indFrac := float64(st.IndJumps) / float64(st.Instructions)
			if indFrac < 0.0005 || indFrac > 0.10 {
				t.Errorf("indirect jump fraction %.4f out of plausible range", indFrac)
			}
			t.Logf("%s: instr=%d branches=%d (%.1f%%) ind=%d (%.2f%%) static=%d maxTargets=%d poly=%.2f",
				w.Name, st.Instructions, st.Branches, 100*branchFrac,
				st.IndJumps, 100*indFrac, st.StaticIndJumps(), st.MaxTargets(),
				st.PolymorphicFraction())
		})
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			a := trace.Collect(trace.NewLimit(w.Open(), 20_000))
			b := trace.Collect(trace.NewLimit(w.Open(), 20_000))
			if len(a) != len(b) {
				t.Fatalf("pass lengths differ: %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("record %d differs: %+v vs %+v", i, a[i], b[i])
				}
			}
		})
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("perl"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Fatal("expected error for unknown workload")
	}
	if got := len(All()); got != 8 {
		t.Fatalf("got %d workloads, want 8", got)
	}
	pg := PerlGcc()
	if pg[0].Name != "perl" || pg[1].Name != "gcc" {
		t.Fatalf("PerlGcc returned %s, %s", pg[0].Name, pg[1].Name)
	}
}

// TestShippedWorkloadsStayNarrow pins the decoded capture at
// trace.NarrowRecordBytes per record for every registered workload at the
// suite's accuracy budget: every PC, target and address fits the uint32
// columns, so no capture silently falls back to wide columns.
func TestShippedWorkloadsStayNarrow(t *testing.T) {
	budget := int64(2_000_000)
	if testing.Short() {
		budget = smokeBudget
	}
	for _, name := range Names() {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rep := trace.CaptureSized(trace.NewLimit(w.Open(), budget), budget)
		if got, want := rep.MemBytes(), rep.Len()*trace.NarrowRecordBytes; got != want {
			t.Errorf("%s: %d-record capture holds %d decoded bytes (%.2f per record), want %d",
				name, rep.Len(), got, float64(got)/float64(rep.Len()), want)
		}
	}
}
