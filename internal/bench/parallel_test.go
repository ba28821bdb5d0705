package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// TestParallelMatchesSerial is the cell scheduler's core contract: every
// experiment must render byte-identical tables (text and JSON) whether its
// cells run serially or on a worker pool. Two parameter sets guard against
// a budget-dependent ordering sneaking in.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice per parameter set")
	}
	paramSets := []Params{
		{AccuracyBudget: 60_000, TimingBudget: 40_000},
		{AccuracyBudget: 90_000, TimingBudget: 50_000},
	}
	for _, base := range paramSets {
		for _, e := range All() {
			serial, parallel := base, base
			serial.Parallel = 1
			parallel.Parallel = 8
			a := e.Run(serial)
			b := e.Run(parallel)
			if len(a) != len(b) {
				t.Fatalf("%s: %d tables serial vs %d parallel", e.ID, len(a), len(b))
			}
			for i := range a {
				if a[i].String() != b[i].String() {
					t.Errorf("%s (n=%d): table %d differs at -parallel 8:\n--- serial\n%s\n--- parallel\n%s",
						e.ID, base.AccuracyBudget, i, a[i], b[i])
				}
				aj, err := json.Marshal(a[i])
				if err != nil {
					t.Fatal(err)
				}
				bj, err := json.Marshal(b[i])
				if err != nil {
					t.Fatal(err)
				}
				if string(aj) != string(bj) {
					t.Errorf("%s: table %d JSON differs at -parallel 8", e.ID, i)
				}
			}
		}
	}
}

// TestTraceCapturedOncePerKey pins the memoization guarantee: across an
// experiment's parallel cells the VM runs at most once per (workload,
// budget) key, and a repeat run at the same budgets captures nothing new.
func TestTraceCapturedOncePerKey(t *testing.T) {
	workload.ResetMemo()
	t.Cleanup(workload.ResetMemo)
	base := workload.CaptureCount()

	p := Params{AccuracyBudget: 60_000, TimingBudget: 40_000, Parallel: 8}

	// table2 is accuracy-only over every workload: exactly one key per
	// workload despite two configurations per workload racing for it.
	e, err := ByID("table2")
	if err != nil {
		t.Fatal(err)
	}
	e.Run(p)
	want := int64(len(workload.All()))
	if got := workload.CaptureCount() - base; got != want {
		t.Fatalf("table2 captured %d traces, want %d (one per workload)", got, want)
	}

	// table5 adds timing cells over perl and gcc — but timing budgets are
	// below the accuracy budget, so prefix sharing serves them from the
	// captures table2 already made: no workload may re-capture.
	e, err = ByID("table5")
	if err != nil {
		t.Fatal(err)
	}
	e.Run(p)
	if got := workload.CaptureCount() - base; got != want {
		t.Fatalf("after table5, %d traces captured, want still %d (timing cells share the accuracy captures)", got, want)
	}

	// Re-running both experiments must not execute any VM again.
	mustRun(t, "table2", p)
	mustRun(t, "table5", p)
	if got := workload.CaptureCount() - base; got != want {
		t.Fatalf("re-run captured %d traces, want still %d", got, want)
	}

	keys, bytes := workload.MemoStats()
	if keys != int(want) || bytes <= 0 {
		t.Fatalf("MemoStats() = %d keys, %d bytes; want %d keys and positive size", keys, bytes, want)
	}
}

func mustRun(t *testing.T, id string, p Params) {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	if tables := e.Run(p); len(tables) == 0 {
		t.Fatalf("%s produced no tables", id)
	}
}

// panicTC faults on its first prediction: a failure inside a fused gang
// rather than in a cell's prologue.
type panicTC struct{ core.TargetCache }

func (panicTC) Predict(pc, hist uint64) (uint64, bool) { panic("injected predictor fault") }

// TestGangPanicIsConfinedToItsMember pins the gang's fault isolation, for
// timing and accuracy gangs alike: when the fused run itself panics, the
// members rerun alone, so only the faulty member fails and its siblings
// report what they report alone.
func TestGangPanicIsConfinedToItsMember(t *testing.T) {
	w, err := workload.ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	p := Params{AccuracyBudget: 20_000, TimingBudget: 20_000, Parallel: 1}
	good := gsharePoint(9)
	bad := gsharePoint(8) // a distinct request whose predictor faults
	build := gangPoint
	gangPoint = func(pt sweep.Point) (sim.GangPoint, error) {
		gp, err := build(pt)
		if newTC := gp.Config.NewTargetCache; pt == bad {
			gp.Config.NewTargetCache = func() core.TargetCache { return panicTC{newTC()} }
		}
		return gp, err
	}
	t.Cleanup(func() { gangPoint = build })

	kinds := map[string]func(*cellGroup, cellID, sweep.Point) *slot[float64]{
		"timing": func(g *cellGroup, id cellID, pt sweep.Point) *slot[float64] {
			return reductionCell(g, id, w, pt)
		},
		"accuracy": func(g *cellGroup, id cellID, pt sweep.Point) *slot[float64] {
			return mispredictCell(g, id, w, pt)
		},
	}
	for name, enqueue := range kinds {
		run := func(pts ...sweep.Point) []*slot[float64] {
			g := newCellGroup(p)
			var slots []*slot[float64]
			for i, pt := range pts {
				slots = append(slots, enqueue(g, cid(w, fmt.Sprint(i)), pt))
			}
			if items := g.plan(g.cells); len(items) != 1 {
				t.Fatalf("%s: %d cells planned into %d items, want one gang", name, len(pts), len(items))
			}
			g.run()
			return slots
		}
		alone := run(good)[0]
		got := run(good, bad, good)
		for _, i := range []int{0, 2} {
			if !got[i].ok() || got[i].val != alone.val {
				t.Errorf("%s sibling %d: ok=%v val=%v, want the solo run's %v", name, i, got[i].ok(), got[i].val, alone.val)
			}
		}
		if got[1].ok() || !strings.Contains(got[1].cerr.Error(), "injected predictor fault") {
			t.Errorf("%s faulty member: %v, want the injected fault", name, got[1].cerr)
		}
	}
}
