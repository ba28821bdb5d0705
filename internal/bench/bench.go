// Package bench defines one reproducible experiment per table and figure in
// the paper's evaluation (Tables 1-9, Figures 1-8 and 12-13), plus ablation
// sweeps beyond the paper. Each experiment runs the relevant simulations
// and renders plain-text tables with the same rows/series the paper
// reports.
package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// Params control experiment scale. The defaults run every experiment in
// seconds; raise the budgets for tighter estimates.
type Params struct {
	// AccuracyBudget is the instruction budget per accuracy simulation.
	AccuracyBudget int64
	// TimingBudget is the instruction budget per timing simulation.
	TimingBudget int64
	// EventModel switches the timing experiments from the fast one-pass
	// model to the event-driven validation model (slower, structurally
	// explicit; the two agree on all reported orderings).
	EventModel bool
	// Parallel is the number of simulation cells each experiment runs
	// concurrently: 0 means one worker per CPU, 1 runs serially. Results
	// are gathered positionally, so rendered tables are byte-identical at
	// every setting.
	Parallel int
	// Segments is the number of concurrent segments an accuracy cell may
	// split its capture into (sim.RunAccuracySegmentedCtx): 0 picks
	// automatically — split only when idle workers outnumber queued
	// cells — 1 disables splitting, N forces up to N. Results are
	// byte-identical at every setting.
	Segments int
	// Telemetry, when non-nil, collects per-site predictor statistics,
	// misprediction events and run-level metrics: every simulation cell
	// gets a private collector, merged into the recorder when the cell
	// completes. Nil (the default) disables collection; the disabled cost
	// is one nil check per resolved indirect jump.
	Telemetry *telemetry.Recorder

	// ctx cancels in-flight simulation cells; nil means Background. Set
	// it with WithContext so the zero Params stays usable.
	ctx context.Context
	// experiment labels cells for CellError reporting; the suite runner
	// sets it per experiment via forExperiment.
	experiment string
	// cell identifies the simulation cell this Params copy was minted
	// for; the cell scheduler sets it so kernels can attribute telemetry.
	cell cellID
	// run, when non-nil, is the RunSuite call's shared state: the
	// failure log for the exit digest and the simulation memo.
	run *suiteRun
	// segs is the segment count resolved by the cell scheduler for the
	// current cell group (cellSegments applied to the queue length).
	segs int
}

// workers resolves Parallel to a concrete worker count.
func (p Params) workers() int {
	if p.Parallel > 0 {
		return p.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// Workers is the resolved worker-pool size (Parallel, or one per CPU when
// unset) — the value telemetry.RunInfo wants.
func (p Params) Workers() int { return p.workers() }

// shareBudget is the largest per-cell budget in play: any capture of at
// least this many records serves every cell of the workload (drivers
// clamp to their own budget), so the memo keeps one capture per workload
// instead of one per (workload, budget).
func (p Params) shareBudget() int64 {
	if p.AccuracyBudget > p.TimingBudget {
		return p.AccuracyBudget
	}
	return p.TimingBudget
}

// cellSegments resolves Segments for a group of `cells` queued cells.
// Automatic mode splits only when workers would otherwise idle (fewer
// cells than workers), giving each cell roughly the spare workers, capped
// at 8 — beyond that, priming overhead outweighs the extra overlap.
func (p Params) cellSegments(cells int) int {
	if p.Segments == 1 {
		return 1
	}
	if p.Segments > 1 {
		return p.Segments
	}
	w := p.workers()
	if cells <= 0 || w <= cells {
		return 1
	}
	s := (w + cells - 1) / cells
	if s > 8 {
		s = 8
	}
	return s
}

// WithContext returns a copy of p whose simulation cells observe ctx:
// cancellation stops in-flight kernels at the next poll boundary and marks
// not-yet-started cells as cancelled, so experiments still render (with
// ERR rows) and the run can summarise what completed.
func (p Params) WithContext(ctx context.Context) Params {
	p.ctx = ctx
	return p
}

// Context returns the params' context, Background when unset.
func (p Params) Context() context.Context {
	if p.ctx != nil {
		return p.ctx
	}
	return context.Background()
}

// forExperiment returns a copy of p labelled with the experiment id and
// wired to the suite run's failure log and memo.
func (p Params) forExperiment(id string, run *suiteRun) Params {
	p.experiment = id
	p.run = run
	return p
}

// failures is the suite run's failure log, nil outside RunSuite.
func (p Params) failures() *failureLog {
	if p.run == nil {
		return nil
	}
	return &p.run.fails
}

// memo is the suite memo, nil outside RunSuite and whenever telemetry is
// on: every cell must then fill its own collector, so every cell runs.
func (p Params) memo() *simMemo {
	if p.run == nil || p.Telemetry != nil {
		return nil
	}
	return &p.run.memo
}

// forCell returns a copy of p minted for one simulation cell; telemetry
// collected by the cell's kernels is attributed to id.
func (p Params) forCell(id cellID) Params {
	p.cell = id
	return p
}

// startCollector returns a fresh telemetry collector for the current
// cell, nil when telemetry is disabled.
func (p Params) startCollector() *telemetry.Collector {
	return p.Telemetry.NewCollector()
}

// mergeCollector folds a cell kernel's collector into the run-level
// recorder under the cell's "experiment/workload/config" key. Callers
// defer it so partial telemetry from failed cells still lands.
func (p Params) mergeCollector(col *telemetry.Collector) {
	if col == nil {
		return
	}
	p.Telemetry.Merge(telemetry.Key{
		Experiment: p.experiment,
		Workload:   p.cell.Workload,
		Config:     p.cell.Config,
	}, col)
}

// DefaultParams returns budgets that run the full suite quickly while
// keeping rates stable.
func DefaultParams() Params {
	return Params{AccuracyBudget: 2_000_000, TimingBudget: 1_000_000}
}

// Experiment is one paper table or figure.
type Experiment struct {
	// ID is the command-line name, e.g. "table4" or "figures12-13".
	ID string
	// Title describes the experiment.
	Title string
	// Run executes the experiment and returns rendered tables.
	Run func(p Params) []*stats.Table
}

var experiments []*Experiment

func registerExperiment(e *Experiment) *Experiment {
	experiments = append(experiments, e)
	return e
}

// experimentOrder is the canonical presentation order: the paper's tables
// and figures first, then the extensions, with the claims verifier last.
var experimentOrder = []string{
	"table1", "figures1-8", "table2", "table3", "table4", "table5",
	"table6", "table7", "table8", "table9", "figures12-13",
	"ablation-history", "budget", "cbt", "context-switch", "cxx", "followups", "ras",
	"sensitivity", "wrongpath", "verify",
}

// All returns every experiment in canonical (paper-first) order.
func All() []*Experiment {
	rank := make(map[string]int, len(experimentOrder))
	for i, id := range experimentOrder {
		rank[id] = i
	}
	out := make([]*Experiment, len(experiments))
	copy(out, experiments)
	sort.SliceStable(out, func(i, j int) bool {
		ri, iOK := rank[out[i].ID]
		rj, jOK := rank[out[j].ID]
		if iOK && jOK {
			return ri < rj
		}
		if iOK != jOK {
			return iOK // ranked experiments before unranked ones
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// ByID returns the named experiment.
func ByID(id string) (*Experiment, error) {
	for _, e := range experiments {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", id, ids)
}

// ---- shared helpers ----

// pct formats a fraction as a percentage.
func pct(v float64) string { return stats.Percent(v) }

// ---- predictor points ----
//
// Every simulation cell names its predictor as a sweep.Point: plain data
// that keys the suite memo and groups cells into gangs.

// btbPoint is the paper's baseline front end alone: a 1K-entry 4-way BTB.
var btbPoint = sweep.Point{Family: "btb", Scheme: "default", Entries: 1024, Ways: 4}

// btbTwoBitPoint is the baseline BTB under the 2-bit update strategy.
var btbTwoBitPoint = sweep.Point{Family: "btb", Scheme: "2bit", Entries: 1024, Ways: 4}

// taglessPoint is a 512-entry tagless target cache; histBits is the
// history depth (and, for GAs, the history share of the index).
func taglessPoint(scheme, hist string, histBits int) sweep.Point {
	return sweep.Point{Family: "tagless", Scheme: scheme, History: hist, Entries: 512, HistBits: histBits}
}

// gsharePoint is the paper's 512-entry tagless gshare cache over histBits
// of pattern history.
func gsharePoint(histBits int) sweep.Point { return taglessPoint("gshare", "pattern", histBits) }

// taggedPoint is a 256-entry tagged target cache with full tags.
func taggedPoint(scheme string, ways int, hist string, histBits int) sweep.Point {
	return sweep.Point{Family: "tagged", Scheme: scheme, History: hist, Entries: 256, Ways: ways, HistBits: histBits}
}

// ittagePoint is the paper-lineage ITTAGE predictor (core's default
// geometry) over a 64-bit history of kind hist.
func ittagePoint(hist string) sweep.Point {
	return sweep.Point{Family: "ittage", History: hist, Stage1: 256, Entries: 128, Tables: 5, TagBits: 9, HistBits: 64}
}

// pathSchemes are the five path-history variants of Tables 5, 6 and 8,
// in the paper's column order: each names its history kind.
var pathSchemes = []struct{ Name, History string }{
	{"per-addr", "path-peraddr"},
	{"branch", "path-branch"},
	{"control", "path-control"},
	{"ind jmp", "path-indjmp"},
	{"call/ret", "path-callret"},
}

// withPath sets a path-history point's bits per target and address bit.
func withPath(pt sweep.Point, bitsPerTarget, addrBit int) sweep.Point {
	pt.PathBitsPerTarget, pt.PathAddrBit = bitsPerTarget, addrBit
	return pt
}
