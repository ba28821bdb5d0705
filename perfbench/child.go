package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// iteration is what one child process reports about one run of a
// workload: set-up, the simulation phase, the digest of the rendered
// output, and (traced) the per-layer metrics and spans.
type iteration struct {
	SetupS float64 `json:"setup_s"`
	WallS  float64 `json:"wall_s"`
	CPUS   float64 `json:"cpu_s"`
	// PeakRSSMB is filled in by the parent from the child's rusage.
	PeakRSSMB float64 `json:"peak_rss_mb"`

	Digest    string `json:"digest"`
	Ops       int64  `json:"ops"`
	OpsFailed int64  `json:"ops_failed"`
	ClaimsOK  bool   `json:"claims_ok"`

	// Path-identity counters: equal in the traced and untraced runs.
	SimInstr      int64            `json:"sim_instr"`
	Segments      sim.SegmentStats `json:"segments"`
	GangFallbacks int64            `json:"gang_fallbacks"`

	Layers map[string]float64 `json:"layers,omitempty"`
	Spans  []span             `json:"spans,omitempty"`
}

// Reference modes re-run a workload down the path its output must match.
const (
	refInMemory = "inmemory" // outofcore without spilling
	refDirect   = "direct"   // sweep with fusion off (gang width 1)
)

// Fixed workload parameters. suite uses bench.DefaultParams; outofcore's
// budget is several times the trace store's 64 MiB block cache (10M
// records of 28 decoded bytes each).
const outOfCoreBudget = 10_000_000

var outOfCoreExperiments = []string{"table4"}

type child struct {
	job     string
	seed    int64
	ref     string
	workdir string
	workers int
	tr      *tracer // nil on the untraced run
	it      iteration

	sweepPoints []sweep.Point
	sweepPlans  []sweep.GangPlan
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// runChild performs one iteration of job in this process.
func runChild(job string, seed int64, traced bool, ref, workdir string) (*iteration, error) {
	c := &child{job: job, seed: seed, ref: ref, workdir: workdir, workers: runtime.NumCPU()}
	if traced {
		c.tr = newTracer()
		c.it.Layers = map[string]float64{}
	}
	var out []byte
	var err error
	switch job {
	case "suite":
		out, err = c.runSuite(bench.All(), bench.DefaultParams(), workload.Names(), false)
	case "outofcore":
		p := bench.DefaultParams()
		p.AccuracyBudget = outOfCoreBudget
		var exps []*bench.Experiment
		for _, id := range outOfCoreExperiments {
			e, err := bench.ByID(id)
			if err != nil {
				return nil, err
			}
			exps = append(exps, e)
		}
		var names []string
		for _, w := range workload.PerlGcc() {
			names = append(names, w.Name)
		}
		out, err = c.runSuite(exps, p, names, ref != refInMemory)
	case "sweep":
		out, err = c.runSweep()
	default:
		err = fmt.Errorf("unknown workload %q", job)
	}
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(out)
	c.it.Digest = hex.EncodeToString(sum[:])
	if traced {
		if err := c.ladder(); err != nil {
			return nil, fmt.Errorf("layer ladder: %w", err)
		}
		c.it.Spans = c.tr.spans
	}
	return &c.it, nil
}

// setup builds every capture the run needs, starting from an empty memo,
// with one capture per worker at a time as the suite's cells would.
func (c *child) setup(names []string, budget int64, spill bool) (captures0 int64, err error) {
	ws := make([]*workload.Workload, len(names))
	for i, n := range names {
		if ws[i], err = workload.ByName(n); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	sid := c.tr.start("setup", 0)
	workload.ResetMemo()
	captures0 = workload.CaptureCount()
	if spill {
		id := c.tr.start("workload.ConfigureSpill", sid)
		workload.ConfigureSpill(workload.SpillConfig{
			Dir: c.storeDir(), Threshold: 1, Compress: true,
		})
		c.tr.end(id)
	}
	pool.Run(c.workers, len(ws), func(i int) {
		id := c.tr.start("workload.Replay/"+ws[i].Name, sid)
		ws[i].Replay(budget)
		c.tr.end(id)
	})
	c.tr.end(sid)
	c.it.SetupS = time.Since(start).Seconds()
	if spill {
		if n, _ := workload.SpillStats(); n != int64(len(ws)) {
			return 0, fmt.Errorf("spilled %d of %d captures", n, len(ws))
		}
	}
	return captures0, nil
}

// storeDir holds this process's spilled captures.
func (c *child) storeDir() string {
	return filepath.Join(c.workdir, fmt.Sprintf("store-%d", os.Getpid()))
}

// simulate times fn as the simulation phase: wall and CPU seconds.
func (c *child) simulate(fn func(parent int) error) error {
	cpu0 := cpuSeconds()
	start := time.Now()
	id := c.tr.start("simulate", 0)
	err := fn(id)
	c.tr.end(id)
	c.it.WallS = time.Since(start).Seconds()
	c.it.CPUS = cpuSeconds() - cpu0
	return err
}

func (c *child) runSuite(exps []*bench.Experiment, p bench.Params, names []string, spill bool) ([]byte, error) {
	p.Parallel = c.workers
	budget := max(p.AccuracyBudget, p.TimingBudget)
	captures0, err := c.setup(names, budget, spill)
	if err != nil {
		return nil, err
	}
	if spill {
		defer os.RemoveAll(c.storeDir())
	}

	var buf bytes.Buffer
	var res *bench.SuiteResult
	stats0, seg0, store0 := bench.SnapshotStats(), sim.SegmentCounters(), trace.StoreCacheCounters()
	var suiteID int
	err = c.simulate(func(parent int) error {
		suiteID = c.tr.start("bench.RunSuite", parent)
		var err error
		res, err = bench.RunSuite(context.Background(), bench.SuiteOptions{
			Experiments: exps, Params: p, Format: "text", Out: &buf,
			OnExperiment: func(r bench.ExperimentReport) {
				end := time.Now()
				c.tr.add("bench.experiment/"+r.ID, suiteID, end.Add(-time.Duration(r.WallMS*float64(time.Millisecond))), end)
			},
		})
		c.tr.end(suiteID)
		return err
	})
	if err != nil {
		return nil, err
	}
	if res.Interrupted {
		return nil, errors.New("suite interrupted")
	}
	work := bench.SnapshotStats().Sub(stats0)
	seg := sim.SegmentCounters()
	c.it.Ops = max(work.Cells, 1)
	c.it.OpsFailed = min(int64(len(res.Failures)), c.it.Ops)
	c.it.SimInstr = work.Instructions
	c.it.Segments = sim.SegmentStats{
		SegmentedRuns:      seg.SegmentedRuns - seg0.SegmentedRuns,
		SegmentsExecuted:   seg.SegmentsExecuted - seg0.SegmentsExecuted,
		WarmupInstructions: seg.WarmupInstructions - seg0.WarmupInstructions,
	}
	c.it.ClaimsOK = c.job != "suite" || claimsHold(buf.String())

	if c.tr != nil {
		l := c.it.Layers
		l["workload.captures"] = float64(workload.CaptureCount() - captures0)
		l["bench.cells"] = float64(work.Cells)
		l["bench.sim_instr"] = float64(work.Instructions)
		l["bench.cpu_util"] = c.it.CPUS / (c.it.WallS * float64(c.workers))
		if work.Instructions > 0 {
			l["sim.segment_prime_frac"] = float64(c.it.Segments.WarmupInstructions) / float64(work.Instructions)
		}
		for _, s := range c.tr.spans {
			if id, ok := strings.CutPrefix(s.Name, "bench.experiment/"); ok {
				l["bench.experiment_s."+id] = s.seconds()
			}
		}
		// Rendering and barriers: the runner's time outside experiments.
		l["bench.unattributed_frac"] = selfSeconds(c.tr.spans, suiteID) / c.it.WallS
		store := trace.StoreCacheCounters()
		hits, misses := store.Hits-store0.Hits, store.Misses-store0.Misses
		l["trace.store_group_decodes"] = float64(misses)
		if hits+misses > 0 {
			l["trace.store_cache_hit_ratio"] = float64(hits) / float64(hits+misses)
		}
	}
	return buf.Bytes(), nil
}

// claimsHold reports whether the rendered suite's verify experiment ran
// and every claim row ends in PASS.
func claimsHold(out string) bool {
	_, chunk, ok := strings.Cut(out, "== verify:")
	if !ok {
		return false
	}
	var pass int
	for _, line := range strings.Split(chunk, "\n") {
		switch {
		case strings.HasSuffix(strings.TrimSpace(line), "FAIL"):
			return false
		case strings.HasSuffix(strings.TrimSpace(line), "PASS"):
			pass++
		}
	}
	return pass > 0
}

func (c *child) runSweep() ([]byte, error) {
	spec, err := sweep.ParseSpec(sweepSpec(c.seed))
	if err != nil {
		return nil, err
	}
	captures0, err := c.setup(spec.Workloads, spec.Budget, false)
	if err != nil {
		return nil, err
	}
	opts := sweep.Options{Workers: c.workers}
	if c.ref == refDirect {
		opts.GangWidth = 1
	}
	var buf bytes.Buffer
	var out *sweep.Outcome
	var runErr error
	err = c.simulate(func(parent int) error {
		id := c.tr.start("sweep.Expand", parent)
		ex, err := spec.Expand()
		c.tr.end(id)
		if err != nil {
			return err
		}
		if len(ex.Points) != sweepPoints || ex.SkippedInvalid != 0 {
			return fmt.Errorf("seed %d expands to %d points (%d invalid), want %d", c.seed, len(ex.Points), ex.SkippedInvalid, sweepPoints)
		}
		c.sweepPoints = ex.Points
		id = c.tr.start("sweep.PlanGangs", parent)
		c.sweepPlans = sweep.PlanGangs(ex.Points, 0, opts.GangWidth)
		c.tr.end(id)

		id = c.tr.start("sweep.Run", parent)
		out, runErr = sweep.Run(context.Background(), spec, opts)
		c.tr.end(id)
		if runErr == nil {
			id = c.tr.start("sweep.Report", parent)
			out.Report().Render(&buf)
			c.tr.end(id)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.it.Ops = sweepPoints
	c.it.ClaimsOK = true
	if runErr != nil {
		// sweep.Run returns no results once any point fails, so every
		// point of the run counts as failed.
		c.it.OpsFailed = sweepPoints
		fmt.Fprintf(os.Stderr, "perfbench: sweep: %v\n", runErr)
		return nil, nil
	}
	c.it.SimInstr = out.SimulatedInstructions
	c.it.GangFallbacks = out.GangFallbacks
	if c.tr != nil {
		l := c.it.Layers
		l["workload.captures"] = float64(workload.CaptureCount() - captures0)
		for _, s := range c.tr.spans {
			switch s.Name {
			case "sweep.Expand", "sweep.PlanGangs":
				l["sweep.plan_s"] += s.seconds()
			case "sweep.Report":
				l["sweep.report_s"] += s.seconds()
			}
		}
		l["sweep.passes"] = float64(out.FusedGangs + out.DirectPoints)
		l["sweep.passes_avoided"] = float64(out.PassesAvoided())
		l["sweep.gang_fallbacks"] = float64(out.GangFallbacks)
		l["sweep.cpu_util"] = c.it.CPUS / (c.it.WallS * float64(c.workers))
	}
	return buf.Bytes(), nil
}
