package bench

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/telemetry"
)

// suiteText runs every experiment through RunSuite and returns the
// rendered text, failing the test on any cell failure.
func suiteText(t *testing.T, p Params) string {
	t.Helper()
	var out bytes.Buffer
	res, err := RunSuite(context.Background(), SuiteOptions{Params: p, Format: "text", Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) > 0 {
		t.Fatalf("%d cell failure(s): %v", len(res.Failures), res.Failures[0])
	}
	return out.String()
}

// TestSuiteMemoAndFusionMatchUnfused is the suite-level equivalence
// contract: with telemetry off, cells are served from the suite memo and
// accuracy cells run fused; with telemetry on, the memo is off and every
// cell simulates. The full suite's tables must be byte-identical either
// way, serially and on eight workers.
func TestSuiteMemoAndFusionMatchUnfused(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite four times")
	}
	base := Params{AccuracyBudget: 200_000, TimingBudget: 100_000}
	var want string
	for _, parallel := range []int{1, 8} {
		p := base
		p.Parallel = parallel
		memoized := suiteText(t, p)
		p.Telemetry = telemetry.NewRecorder(telemetry.Config{})
		unmemoized := suiteText(t, p)
		if memoized != unmemoized {
			t.Errorf("parallel %d: memoized suite differs from the telemetry-on (unmemoized) suite", parallel)
		}
		if want == "" {
			want = memoized
		} else if memoized != want {
			t.Errorf("parallel %d: suite differs from the serial run", parallel)
		}
	}
}

// TestFusedCellsMatchSoloCells pins fusion at the suite level: every
// experiment renders the same tables whether its simulation cells run in
// gangs or each alone (gang width 1), with and without the memo.
func TestFusedCellsMatchSoloCells(t *testing.T) {
	p := Params{AccuracyBudget: 60_000, TimingBudget: 40_000, Parallel: 1}
	fused := suiteText(t, p)
	defer func(w int) { maxGangWidth = w }(maxGangWidth)
	maxGangWidth = 1
	if solo := suiteText(t, p); solo != fused {
		t.Error("suite with fused cells differs from the suite with every cell run alone")
	}
	p.Telemetry = telemetry.NewRecorder(telemetry.Config{})
	if solo := suiteText(t, p); solo != fused {
		t.Error("unmemoized suite with every cell run alone differs from the fused suite")
	}
}

// TestSuiteMemoSimulatesEachKeyOnce counts the memo's work over a whole
// suite: every simulation run while the memo is active must store a
// distinct key, so no (workload, budget, point, machine, model) request
// is simulated twice — and repeats must actually be served.
func TestSuiteMemoSimulatesEachKeyOnce(t *testing.T) {
	for _, parallel := range []int{1, 8} {
		run := &suiteRun{}
		before := SnapshotStats()
		res, err := runSuiteWith(context.Background(), SuiteOptions{
			Params: Params{AccuracyBudget: 60_000, TimingBudget: 40_000, Parallel: parallel},
			Format: "text",
		}, run)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Failures) > 0 {
			t.Fatalf("cell failure: %v", res.Failures[0])
		}
		work := SnapshotStats().Sub(before)
		if keys := int64(len(run.memo.entries)); work.MemoMisses != keys {
			t.Errorf("parallel %d: %d simulations for %d distinct keys; some key ran more than once",
				parallel, work.MemoMisses, keys)
		}
		if work.MemoHits == 0 {
			t.Errorf("parallel %d: no memo hits; the suite repeats requests across experiments", parallel)
		}
	}
}

// TestConsecutiveSuitesReportIdenticalWork pins the memo's scope: it
// lives in one RunSuite call, so a second call in the same process
// simulates — and reports — exactly the work of the first.
func TestConsecutiveSuitesReportIdenticalWork(t *testing.T) {
	type work struct{ cells, instructions int64 }
	runOnce := func() map[string]work {
		got := make(map[string]work)
		_, err := RunSuite(context.Background(), SuiteOptions{
			Params: Params{AccuracyBudget: 60_000, TimingBudget: 40_000, Parallel: 2},
			Format: "text",
			OnExperiment: func(r ExperimentReport) {
				got[r.ID] = work{r.Cells, r.Instructions}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	first, second := runOnce(), runOnce()
	for id, w := range first {
		if second[id] != w {
			t.Errorf("%s: first run %+v, second run %+v", id, w, second[id])
		}
	}
}
