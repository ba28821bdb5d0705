package bench

import (
	"sync/atomic"
	"time"

	"repro/internal/cpu"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/stats"
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
	fn func(Params)
	// timing, when non-nil, marks a fused timing cell: run schedules it
	// in a gang with its siblings instead of calling fn.
	timing *timingCell
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

// exec runs one unfused cell.
func (g *cellGroup) exec(c *groupCell) {
	start := time.Now()
	defer func() { g.p.Telemetry.AddBusy(time.Since(start)) }()
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
	// Resolve intra-cell segmentation for this batch: with fewer cells
	// than workers, accuracy cells split their captures so the idle
	// workers help the critical path. Resolution happens here (not per
	// cell) so the count depends only on the queue length, never on
	// scheduling order.
	g.p.segs = g.p.cellSegments(len(cells))
	items := g.plan(cells)
	pool.Run(g.workers, len(items), func(i int) {
		if item := items[i]; item[0].timing == nil {
			g.exec(item[0])
		} else {
			g.execGang(item)
		}
	})
	for i := range cells {
		if ce := cells[i].st.cerr; ce != nil {
			g.errs = append(g.errs, ce)
		}
	}
	if g.p.fails != nil {
		g.p.fails.add(g.errs...)
	}
}

// maxGangWidth caps a timing gang: 16 members' pipeline state (~2 MB)
// still fits a worker's share of cache.
const maxGangWidth = 16

// plan cuts the queue into pool items. An unfused cell is its own item.
// Timing cells are grouped by gang key (timing context, workload), and
// each group of K is split evenly into gangs of width
// min(16, ceil(K/workers)) — one gang per worker when that fits — placed
// where the group's first cell was enqueued. The event model never fuses.
func (g *cellGroup) plan(cells []groupCell) [][]*groupCell {
	groups := make(map[gangKey][]*groupCell)
	for i := range cells {
		if t := cells[i].timing; t != nil {
			groups[t.key()] = append(groups[t.key()], &cells[i])
		}
	}
	var items [][]*groupCell
	for i := range cells {
		c := &cells[i]
		if c.timing == nil {
			items = append(items, []*groupCell{c})
			continue
		}
		members, ok := groups[c.timing.key()]
		if !ok {
			continue // the group was placed at its first cell
		}
		delete(groups, c.timing.key())
		width := 1
		if !g.p.EventModel {
			width = min(maxGangWidth, (len(members)+g.workers-1)/g.workers)
		}
		gangs := (len(members) + width - 1) / width
		for j := 0; j < gangs; j++ {
			items = append(items, members[j*len(members)/gangs:(j+1)*len(members)/gangs])
		}
	}
	return items
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
	// accuracy and timing simulators.
	Instructions int64
}

// SnapshotStats returns the current counter values.
func SnapshotStats() RunStats {
	return RunStats{Cells: cellsExecuted.Load(), Instructions: instructionsSim.Load()}
}

// Sub returns the counter deltas since an earlier snapshot.
func (s RunStats) Sub(earlier RunStats) RunStats {
	return RunStats{Cells: s.Cells - earlier.Cells, Instructions: s.Instructions - earlier.Instructions}
}

// ---- replay-backed simulation kernels ----
//
// All experiment cells go through these wrappers: they swap the live VM for
// the workload's memoized trace replay (so the VM runs at most once per
// (workload, budget) key across the whole suite), account simulated
// instructions, and abort the cell on kernel errors (corrupt replay,
// cancellation) so the failure lands in the cell's slot rather than
// propagating garbage into rendered tables.

// runAccuracy is sim.RunAccuracy over the memoized replay, segmented
// across spare workers when the cell scheduler resolved a split (with
// telemetry enabled the kernel falls back to the plain path itself).
func runAccuracy(w *workload.Workload, p Params, cfg sim.Config) sim.AccuracyResult {
	col := p.startCollector()
	defer p.mergeCollector(col)
	cfg.Telemetry = col
	res := sim.RunAccuracySegmentedCtx(p.Context(), w.ReplayPrefix(p.AccuracyBudget, p.shareBudget()), p.AccuracyBudget, p.segs, cfg)
	instructionsSim.Add(res.Instructions)
	if res.Err != nil {
		abortCell(res.Err)
	}
	return res
}

// runAccuracyFlushes is sim.RunAccuracyWithFlushes over the memoized
// replay.
func runAccuracyFlushes(w *workload.Workload, p Params, interval int64, cfg sim.Config) sim.AccuracyResult {
	col := p.startCollector()
	defer p.mergeCollector(col)
	cfg.Telemetry = col
	res := sim.RunAccuracyWithFlushesCtx(p.Context(), w.ReplayPrefix(p.AccuracyBudget, p.shareBudget()), p.AccuracyBudget, interval, cfg)
	instructionsSim.Add(res.Instructions)
	if res.Err != nil {
		abortCell(res.Err)
	}
	return res
}

// runTiming is the fast one-pass timing model over the memoized replay
// with an explicit machine configuration.
func runTiming(w *workload.Workload, p Params, cfg sim.Config, mc cpu.Config) cpu.Result {
	col := p.startCollector()
	defer p.mergeCollector(col)
	cfg.Telemetry = col
	res := cpu.New(mc, sim.NewEngine(cfg)).RunReplayCtx(p.Context(), w.ReplayPrefix(p.TimingBudget, p.shareBudget()), p.TimingBudget)
	instructionsSim.Add(res.Instructions)
	if res.Err != nil {
		abortCell(res.Err)
	}
	return res
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
