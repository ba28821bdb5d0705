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
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/history"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
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
	// fails, when non-nil, collects every CellError across experiments
	// for the run-level exit digest.
	fails *failureLog
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
// wired to the run-level failure log.
func (p Params) forExperiment(id string, fails *failureLog) Params {
	p.experiment = id
	p.fails = fails
	return p
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

// timingContext runs the BTB-only machine at most once per workload and
// caches the result for the duration of one experiment. It is safe for
// concurrent use by parallel cells: the first cell needing a workload's
// baseline computes it under a per-workload once while later cells block
// on the same once, so no work is duplicated.
type timingContext struct {
	p      Params
	cpuCfg cpu.Config

	mu   sync.Mutex
	base map[string]*baselineCell
}

type baselineCell struct {
	once   sync.Once
	cycles int64
	err    error
}

func newTimingContext(p Params) *timingContext {
	return &timingContext{p: p, base: make(map[string]*baselineCell), cpuCfg: cpu.DefaultConfig()}
}

// globalBaselines memoizes successful BTB-only baseline cycle counts across
// experiments: the count is a pure function of the key, and several
// experiments rerun the identical baseline machine on the identical
// workload. The memo is consulted only when telemetry is disabled — with
// telemetry on, every experiment must still run its own baseline so its
// "btb-baseline" collector entry is populated. Failures are never stored,
// so an injected fault in one experiment's baseline cell cannot leak into
// another experiment.
var globalBaselines sync.Map // baselineKey -> int64 cycles

type baselineKey struct {
	workload   string
	budget     int64
	eventModel bool
	cpuCfg     cpu.Config
}

// run executes one timing simulation on the configured model: a width-1
// runGang.
func (tc *timingContext) run(w *workload.Workload, cfg sim.Config, col *telemetry.Collector) cpu.Result {
	return tc.runGang(w, []sim.Config{cfg}, []*telemetry.Collector{col})[0]
}

// runGang executes one timing simulation per config, reading the
// workload's memoized trace replay rather than a live VM. On the fast
// model the configs run as one fused gang (cpu.RunReplayGang); the event
// model runs them one by one. cols[i], when non-nil, receives config i's
// telemetry (threaded through the engine so both timing models are
// instrumented identically). Kernel errors (corrupt replay, cancellation,
// deadlock guard) come back in Result.Err; callers decide whether to
// abort their cell.
func (tc *timingContext) runGang(w *workload.Workload, cfgs []sim.Config, cols []*telemetry.Collector) []cpu.Result {
	rep := w.ReplayPrefix(tc.p.TimingBudget, tc.p.shareBudget())
	ms := make([]*cpu.Machine, len(cfgs))
	out := make([]cpu.Result, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Telemetry = cols[i]
		engine := sim.NewEngine(cfg)
		if tc.p.EventModel {
			out[i] = cpu.NewEvent(tc.cpuCfg, engine).RunCtx(tc.p.Context(), rep.Open(), tc.p.TimingBudget)
		} else {
			ms[i] = cpu.New(tc.cpuCfg, engine)
		}
	}
	if !tc.p.EventModel {
		out = cpu.RunReplayGang(tc.p.Context(), rep, tc.p.TimingBudget, ms)
	}
	for _, res := range out {
		instructionsSim.Add(res.Instructions)
	}
	return out
}

func (tc *timingContext) baseline(w *workload.Workload) int64 {
	var gkey baselineKey
	if tc.p.Telemetry == nil {
		gkey = baselineKey{
			workload: w.Name, budget: tc.p.TimingBudget,
			eventModel: tc.p.EventModel, cpuCfg: tc.cpuCfg,
		}
		if v, ok := globalBaselines.Load(gkey); ok {
			return v.(int64)
		}
	}
	tc.mu.Lock()
	c, ok := tc.base[w.Name]
	if !ok {
		c = &baselineCell{}
		tc.base[w.Name] = c
	}
	tc.mu.Unlock()
	c.once.Do(func() {
		// A panicking baseline must not leave later cells reading cycles=0
		// as if it succeeded: capture the failure so every dependent cell
		// aborts with it.
		defer func() {
			if v := recover(); v != nil {
				c.err, _ = recoveredErr(v)
			}
		}()
		// The baseline runs once per workload, inside whichever cell gets
		// there first — so its telemetry is attributed under a fixed
		// "btb-baseline" key rather than the racing cell's, keeping
		// reports identical at any worker count.
		col := tc.p.Telemetry.NewCollector()
		defer tc.p.Telemetry.Merge(telemetry.Key{
			Experiment: tc.p.experiment, Workload: w.Name, Config: "btb-baseline",
		}, col)
		res := tc.run(w, sim.DefaultConfig(), col)
		if res.Err != nil {
			c.err = res.Err
			return
		}
		c.cycles = res.Cycles
	})
	if c.err != nil {
		abortCell(fmt.Errorf("BTB baseline for %s: %w", w.Name, c.err))
	}
	if tc.p.Telemetry == nil {
		globalBaselines.Store(gkey, c.cycles)
	}
	return c.cycles
}

// timingCell is one fused timing cell: the execution-time reduction of
// cfg over the BTB-only baseline on w.
type timingCell struct {
	tc  *timingContext
	w   *workload.Workload
	cfg sim.Config
	out *float64
}

// gangKey groups timing cells into gangs: same experiment and machine
// (the timing context), same capture. Every timing cell uses the paper's
// front end; should members ever disagree on it, cpu.RunReplayGang panics
// and execGang reruns them alone.
type gangKey struct {
	tc       *timingContext
	workload string
}

func (t *timingCell) key() gangKey { return gangKey{tc: t.tc, workload: t.w.Name} }

// reduction enqueues a timing cell under id: the execution-time reduction
// of cfg versus the BTB-only baseline on w. The scheduler runs it fused
// with its gang siblings; the slot is filled as if it ran alone.
func (tc *timingContext) reduction(g *cellGroup, id cellID, w *workload.Workload, cfg sim.Config) *slot[float64] {
	s := &slot[float64]{}
	g.cells = append(g.cells, groupCell{id: id, st: &s.cellStatus, timing: &timingCell{tc: tc, w: w, cfg: cfg, out: &s.val}})
	return s
}

// execGang runs one gang of timing cells as one pool item. Each member
// keeps a cell's contract: its own prologue (cancellation, test hook),
// baseline, telemetry collector, instruction accounting and CellError.
// A failure before the gang drops only that member. Should the fused run
// itself panic, every member reruns alone, so a fault stays confined to
// the member that causes it.
func (g *cellGroup) execGang(cells []*groupCell) {
	start := time.Now()
	defer func() { g.p.Telemetry.AddBusy(time.Since(start)) }()
	tc, w := cells[0].timing.tc, cells[0].timing.w
	var live []*groupCell
	var bases []int64
	for _, c := range cells {
		var base int64
		if g.guard(c, func() {
			g.enter(c)
			base = tc.baseline(w)
		}) {
			live = append(live, c)
			bases = append(bases, base)
		}
	}
	if len(live) == 0 {
		return
	}
	cfgs := make([]sim.Config, len(live))
	cols := make([]*telemetry.Collector, len(live))
	for i, c := range live {
		cfgs[i] = c.timing.cfg
		cols[i] = g.p.forCell(c.id).startCollector()
	}
	results, fused := tryGang(tc, w, cfgs, cols)
	for i, c := range live {
		p := g.p.forCell(c.id)
		g.guard(c, func() {
			var res cpu.Result
			if fused {
				defer p.mergeCollector(cols[i])
				res = results[i]
			} else {
				col := p.startCollector()
				defer p.mergeCollector(col)
				res = tc.run(w, cfgs[i], col)
			}
			if res.Err != nil {
				abortCell(res.Err)
			}
			*c.timing.out = stats.Reduction(float64(bases[i]), float64(res.Cycles))
		})
	}
}

// tryGang runs the fused gang, reporting false when it panicked.
func tryGang(tc *timingContext, w *workload.Workload, cfgs []sim.Config, cols []*telemetry.Collector) (results []cpu.Result, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return tc.runGang(w, cfgs, cols), true
}

// tcConfig builds a sim.Config with the given target cache and history
// constructors.
func tcConfig(newTC func() core.TargetCache, newHist func() history.Provider) sim.Config {
	return sim.DefaultConfig().WithTargetCache(newTC, newHist)
}

// taglessGshare is the tagless target cache used throughout Tables 5-6.
func taglessGshare(entries int) func() core.TargetCache {
	return func() core.TargetCache {
		return core.NewTagless(core.TaglessConfig{Entries: entries, Scheme: core.SchemeGshare})
	}
}

// pattern returns a pattern-history constructor.
func pattern(bits int) func() history.Provider {
	return func() history.Provider { return history.NewPatternProvider(bits) }
}

// path returns a path-history constructor.
func path(cfg history.PathConfig) func() history.Provider {
	return func() history.Provider { return history.NewPath(cfg) }
}

// pathSchemes are the five path-history variants of Tables 5, 6 and 8,
// in the paper's column order.
func pathSchemes(bits, bitsPerTarget, addrBitOffset int) []struct {
	Name string
	Cfg  history.PathConfig
} {
	base := history.PathConfig{
		Bits:          bits,
		BitsPerTarget: bitsPerTarget,
		AddrBitOffset: addrBitOffset,
	}
	mk := func(per bool, f history.PathFilter) history.PathConfig {
		c := base
		c.PerAddress = per
		c.Filter = f
		return c
	}
	return []struct {
		Name string
		Cfg  history.PathConfig
	}{
		{"per-addr", mk(true, 0)},
		{"branch", mk(false, history.FilterBranch)},
		{"control", mk(false, history.FilterControl)},
		{"ind jmp", mk(false, history.FilterIndJmp)},
		{"call/ret", mk(false, history.FilterCallRet)},
	}
}
