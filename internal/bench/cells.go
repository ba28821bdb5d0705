package bench

import (
	"sync/atomic"
	"time"

	"repro/internal/cpu"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Cell scheduling: every experiment decomposes into independent simulation
// cells — each a pure function of a memoized replay cursor and a predictor
// configuration. Experiments enqueue cells into a cellGroup, each cell
// writing its result into a pre-allocated slot; run executes them on a
// bounded worker pool and the experiment then renders its tables from the
// slots in enqueue order. Because rendering is serial and positional, the
// output is byte-identical at any worker count, including 1.
//
// Cells are fault-isolated: a panic or an abortCell inside one cell marks
// only that cell's slot with a CellError. The experiment renders the
// affected rows as ERR, appends a failure footer, and every other cell's
// output is unchanged. Failure footers list cells in enqueue order, so
// they too are byte-identical at any worker count.

// TestCellHook, when non-nil, runs at the start of every cell with the
// cell's "experiment/workload/config" label. It exists for the
// fault-injection harness (internal/faultinject), which uses it to panic,
// delay, or block inside chosen cells. Set it only from tests, and only
// while no experiments are running.
var TestCellHook func(label string)

// cellID labels one simulation cell within an experiment.
type cellID struct {
	Workload string
	Config   string
}

// cid builds a cellID for a workload/configuration pair.
func cid(w *workload.Workload, config string) cellID {
	return cellID{Workload: w.Name, Config: config}
}

func (id cellID) String() string {
	switch {
	case id.Workload == "":
		return id.Config
	case id.Config == "":
		return id.Workload
	default:
		return id.Workload + "/" + id.Config
	}
}

// cellStatus records whether a cell completed; slots embed it so renderers
// can ask any slot whether its value is trustworthy.
type cellStatus struct {
	cerr *CellError
}

// ok reports whether the cell completed without error.
func (s *cellStatus) ok() bool { return s.cerr == nil }

// slot holds one cell's result plus its completion status.
type slot[T any] struct {
	cellStatus
	val T
}

type groupCell struct {
	id cellID
	st *cellStatus
	// Exactly one of fn and sim is set: fn is a closure cell, run as
	// written; sim is a data-only simulation cell, which the planner may
	// fuse with its siblings or serve from the suite memo.
	fn  func(Params)
	sim *simCell
}

// simCell is a data-only cell: one simulation request and, for
// execution-time reductions, the BTB-only baseline it is measured
// against. fill reduces the finished results into the cell's slot.
type simCell struct {
	req  request
	base *request
	fill func(res, base *simResult)

	m, dep *member // resolved by plan
}

type cellGroup struct {
	workers    int
	experiment string
	p          Params
	cells      []groupCell
	errs       []*CellError // failures from completed runs, enqueue order
}

func newCellGroup(p Params) *cellGroup {
	return &cellGroup{workers: p.workers(), experiment: p.experiment, p: p}
}

// do enqueues one cell under id and returns its status. The cell body
// receives a Params copy minted for the cell (so kernels can attribute
// telemetry). Cells must not depend on each other's slots.
func (g *cellGroup) do(id cellID, fn func(Params)) *cellStatus {
	st := &cellStatus{}
	g.cells = append(g.cells, groupCell{id: id, st: st, fn: fn})
	return st
}

// cell enqueues fn under id and returns the slot its result lands in once
// run returns.
func cell[T any](g *cellGroup, id cellID, fn func(Params) T) *slot[T] {
	s := &slot[T]{}
	g.cells = append(g.cells, groupCell{id: id, st: &s.cellStatus, fn: func(p Params) { s.val = fn(p) }})
	return s
}

// simCellOf enqueues a data-only cell under id.
func (g *cellGroup) simCellOf(id cellID, st *cellStatus, sc *simCell) {
	g.cells = append(g.cells, groupCell{id: id, st: st, sim: sc})
}

// accuracyCell enqueues the accuracy simulation req under id; f reduces
// the result into the returned slot.
func accuracyCell[T any](g *cellGroup, id cellID, req request, f func(sim.AccuracyResult) T) *slot[T] {
	s := &slot[T]{}
	g.simCellOf(id, &s.cellStatus, &simCell{
		req:  req,
		fill: func(r, _ *simResult) { s.val = f(r.acc) },
	})
	return s
}

// mispredictCell enqueues an accuracy cell reporting pt's indirect-jump
// misprediction rate on w.
func mispredictCell(g *cellGroup, id cellID, w *workload.Workload, pt sweep.Point) *slot[float64] {
	return accuracyCell(g, id, accuracyRequest(w, pt), sim.AccuracyResult.IndirectMispredictRate)
}

// timingCell enqueues the simulation of pt on w through the fast timing
// model on machine mc, whatever Params.EventModel says: only the fast
// model reports misprediction stall cycles.
func timingCell(g *cellGroup, id cellID, w *workload.Workload, pt sweep.Point, mc cpu.Config) *slot[cpu.Result] {
	s := &slot[cpu.Result]{}
	g.simCellOf(id, &s.cellStatus, &simCell{
		req:  timingRequest(w, pt, mc, false),
		fill: func(r, _ *simResult) { s.val = r.cpu },
	})
	return s
}

// reductionCell enqueues the execution-time reduction of pt over the
// BTB-only baseline on w, both on the paper's machine and the configured
// timing model.
func reductionCell(g *cellGroup, id cellID, w *workload.Workload, pt sweep.Point) *slot[float64] {
	s := &slot[float64]{}
	base := baselineRequest(g, w)
	g.simCellOf(id, &s.cellStatus, &simCell{
		req:  timingRequest(w, pt, cpu.DefaultConfig(), g.p.EventModel),
		base: &base,
		fill: func(r, b *simResult) { s.val = stats.Reduction(float64(b.cpu.Cycles), float64(r.cpu.Cycles)) },
	})
	return s
}

// warmBaselines enqueues one cell per workload that runs the BTB-only
// timing baseline. It owns the baseline's telemetry ("btb-baseline") and
// puts the baseline first in its workload's first gang, where every
// reduction cell finds it.
func warmBaselines(g *cellGroup, ws []*workload.Workload) {
	for _, w := range ws {
		g.simCellOf(cid(w, "btb-baseline"), &cellStatus{}, &simCell{req: baselineRequest(g, w)})
	}
}

// baselineRequest is the BTB-only timing run reductions divide by.
func baselineRequest(g *cellGroup, w *workload.Workload) request {
	return timingRequest(w, btbPoint, cpu.DefaultConfig(), g.p.EventModel)
}

// guard runs body on behalf of cell c, converting a panic or an abortCell
// into c's CellError instead of unwinding the worker. It reports whether
// body completed.
func (g *cellGroup) guard(c *groupCell, body func()) (ok bool) {
	defer func() {
		if v := recover(); v != nil {
			err, stack := recoveredErr(v)
			c.st.cerr = &CellError{
				Experiment: g.experiment,
				Workload:   c.id.Workload,
				Config:     c.id.Config,
				Err:        err,
				Stack:      stack,
			}
			g.p.Telemetry.CellFailed()
			if stack != "" {
				// A raw panic (not a structured abortCell) was contained.
				g.p.Telemetry.CellRecovered()
			}
			ok = false
		}
	}()
	body()
	return true
}

// enter is every cell's prologue, run inside its guard: an already
// cancelled run marks the cell without starting its simulation, and the
// test hook fires with the cell's label.
func (g *cellGroup) enter(c *groupCell) {
	g.p.Telemetry.CellStarted()
	if err := g.p.Context().Err(); err != nil {
		abortCell(err)
	}
	if hook := TestCellHook; hook != nil {
		hook((&CellError{Experiment: g.experiment, Workload: c.id.Workload, Config: c.id.Config}).CellLabel())
	}
}

// exec runs one closure cell.
func (g *cellGroup) exec(c *groupCell) {
	g.guard(c, func() {
		g.enter(c)
		c.fn(g.p.forCell(c.id))
	})
}

// run executes all enqueued cells, at most g.workers at a time, and clears
// the queue. It returns only when every cell has finished; failures are
// appended to g.errs in enqueue order.
func (g *cellGroup) run() {
	cells := g.cells
	g.cells = nil
	cellsExecuted.Add(int64(len(cells)))
	items := g.plan(cells)
	pool.Run(g.workers, len(items), func(i int) {
		start := time.Now()
		defer func() { g.p.Telemetry.AddBusy(time.Since(start)) }()
		if it := items[i]; it.fn != nil {
			g.exec(it.fn)
		} else {
			g.execItem(it)
		}
	})
	for i := range cells {
		if ce := cells[i].st.cerr; ce != nil {
			g.errs = append(g.errs, ce)
		}
	}
	g.p.failures().add(g.errs...)
}

// finish appends the experiment's failure footer (as notes on the last
// table, so it survives text and JSON rendering) and returns the tables.
// With no failures it is the identity, so healthy experiments render
// exactly as before.
func (g *cellGroup) finish(tables []*stats.Table) []*stats.Table {
	if len(g.errs) == 0 || len(tables) == 0 {
		return tables
	}
	t := tables[len(tables)-1]
	t.AddNote("%d cell(s) failed; affected entries render as ERR", len(g.errs))
	for _, ce := range g.errs {
		t.AddNote("ERR %s: %v", ce.CellLabel(), ce.Err)
	}
	return tables
}

// ---- ERR-aware render helpers ----

// pctCell renders a percentage slot, or ERR when its cell failed.
func pctCell(s *slot[float64]) string {
	if !s.ok() {
		return "ERR"
	}
	return pct(s.val)
}

// errRow returns n "ERR" columns for a row whose backing cell failed.
func errRow(n int) []string {
	row := make([]string, n)
	for i := range row {
		row[i] = "ERR"
	}
	return row
}

// ---- process-wide counters (the perf measurement hook) ----

var (
	cellsExecuted   atomic.Int64
	instructionsSim atomic.Int64
)

// RunStats counts simulation work done process-wide; tcsim diffs snapshots
// around each experiment for its stderr summary and bench snapshots.
type RunStats struct {
	// Cells is the number of simulation cells executed.
	Cells int64
	// Instructions is the number of instructions pushed through the
	// accuracy and timing simulators. Results served from the suite
	// memo add nothing.
	Instructions int64
	// MemoHits counts simulation requests served from the suite memo;
	// MemoMisses counts those simulated while a memo was active.
	MemoHits, MemoMisses int64
}

// SnapshotStats returns the current counter values.
func SnapshotStats() RunStats {
	return RunStats{
		Cells: cellsExecuted.Load(), Instructions: instructionsSim.Load(),
		MemoHits: memoHits.Load(), MemoMisses: memoMisses.Load(),
	}
}

// Sub returns the counter deltas since an earlier snapshot.
func (s RunStats) Sub(earlier RunStats) RunStats {
	return RunStats{
		Cells:        s.Cells - earlier.Cells,
		Instructions: s.Instructions - earlier.Instructions,
		MemoHits:     s.MemoHits - earlier.MemoHits,
		MemoMisses:   s.MemoMisses - earlier.MemoMisses,
	}
}

// ---- replay-backed simulation kernels ----
//
// Closure cells go through these wrappers: they read the workload's
// memoized trace replay (so the VM runs at most once per (workload,
// budget) key across the whole suite), account simulated instructions,
// and abort the cell on kernel errors (corrupt replay, cancellation) so
// the failure lands in the cell's slot rather than propagating garbage
// into rendered tables.

// runAccuracy is the accuracy simulation of pt on w for a closure cell,
// served from the suite memo when one is active.
func runAccuracy(w *workload.Workload, p Params, pt sweep.Point) sim.AccuracyResult {
	return p.simulateInline(accuracyRequest(w, pt)).acc
}

// simulateInline runs req for the calling closure cell. With a suite memo
// it waits on, or reuses, any other caller's run of the same request.
func (p Params) simulateInline(req request) simResult {
	memo := p.memo()
	var e *memoEntry
	k := req.key(p)
	if memo != nil {
		var owner bool
		if e, owner = memo.acquire(k); !owner {
			return e.res
		}
		memoMisses.Add(1)
		defer func() {
			if e != nil { // the run panicked before settling
				memo.settle(k, e, nil, false)
			}
		}()
	}
	col := p.startCollector()
	defer p.mergeCollector(col)
	res := p.solo(req, col)
	instructionsSim.Add(res.instructions())
	if e != nil {
		memo.settle(k, e, &res, res.err() == nil)
		e = nil
	}
	if err := res.err(); err != nil {
		abortCell(err)
	}
	return res
}

// solo runs one request alone: accuracy as a width-1 gang, timing
// through the configured model. col, when non-nil, receives the
// run's telemetry.
func (p Params) solo(req request, col *telemetry.Collector) simResult {
	cfg := configOf(req.point).Config
	cfg.Telemetry = col
	if !req.timing {
		rep := req.w.ReplayPrefix(p.AccuracyBudget, p.shareBudget())
		return simResult{acc: sim.RunAccuracyWithFlushesCtx(p.Context(), rep, p.AccuracyBudget, req.flush, cfg)}
	}
	rep := req.w.ReplayPrefix(p.TimingBudget, p.shareBudget())
	if req.event {
		return simResult{cpu: cpu.NewEvent(req.machine, sim.NewEngine(cfg)).RunCtx(p.Context(), rep.Open(), p.TimingBudget)}
	}
	return simResult{cpu: cpu.New(req.machine, sim.NewEngine(cfg)).RunReplayCtx(p.Context(), rep, p.TimingBudget)}
}

// runTraceStats consumes the memoized replay into trace statistics,
// iterating the decode-once batches rather than re-decoding the capture.
func runTraceStats(w *workload.Workload, p Params) *trace.Stats {
	bs := w.ReplayPrefix(p.AccuracyBudget, p.shareBudget())
	st, err := trace.NewStats().ConsumeBatches(bs, p.AccuracyBudget)
	instructionsSim.Add(p.AccuracyBudget)
	if err != nil {
		abortCell(err)
	}
	return st
}
