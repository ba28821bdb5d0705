package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/cbt"
	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The layer ladder times each layer's public call on in-memory prefixes of
// the traces every workload replays (perl and gcc), with the predictor
// configurations the workloads use, after one warm-up repetition. Rows are
// normalised per simulated instruction so that they can be multiplied by a
// workload's instruction counts.

const (
	ladderInstr = 1_000_000
	ladderReps  = 3
)

// accuracyFamilies are the sim.accuracy_ns_per_instr rows: one
// representative configuration per predictor family and history kind, in
// the sweep's data-only form (the suite's paper geometries).
var accuracyFamilies = []struct {
	name  string
	point sweep.Point
}{
	{"btb", sweep.Point{Family: "btb", Scheme: "default", Entries: 256, Ways: 4}},
	{"btb-2bit", sweep.Point{Family: "btb", Scheme: "2bit", Entries: 256, Ways: 4}},
	{"tagless-pattern", sweep.Point{Family: "tagless", Scheme: "gshare", History: "pattern", Entries: 512, HistBits: 9}},
	{"tagless-path", sweep.Point{Family: "tagless", Scheme: "gshare", History: "path-branch", Entries: 512, HistBits: 9}},
	{"tagged-pattern", sweep.Point{Family: "tagged", Scheme: "xor", History: "pattern", Entries: 256, Ways: 4, HistBits: 9, TagBits: 32}},
	{"tagged-path", sweep.Point{Family: "tagged", Scheme: "xor", History: "path-branch", Entries: 256, Ways: 4, HistBits: 9, TagBits: 32}},
	{"cascaded", sweep.Point{Family: "cascaded", Scheme: "filtered", History: "pattern", Stage1: 128, Entries: 256, Ways: 4, HistBits: 9, TagBits: 32}},
	{"ittage", sweep.Point{Family: "ittage", History: "pattern", Stage1: 256, Entries: 128, Tables: 5, HistBits: 64, TagBits: 9}},
}

var gangWidths = []int{1, 4, 16}

// timeRow runs fn once to warm up, then ladderReps times, and returns the
// median seconds per repetition and the bytes allocated per repetition.
func timeRow(fn func() error) (sec, allocBytes float64, err error) {
	if err := fn(); err != nil {
		return 0, 0, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	times := make([]float64, ladderReps)
	for i := range times {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, 0, err
		}
		times[i] = time.Since(start).Seconds()
	}
	runtime.ReadMemStats(&ms1)
	return median(times), float64(ms1.TotalAlloc-ms0.TotalAlloc) / ladderReps, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func accErr(r sim.AccuracyResult) error {
	if r.Err != nil {
		return r.Err
	}
	if r.Instructions != ladderInstr {
		return fmt.Errorf("simulated %d of %d instructions", r.Instructions, ladderInstr)
	}
	return nil
}

// ladder fills the per-layer cost rows for c.job and, on sweep, the
// reconciliation of the run's CPU time against them.
func (c *child) ladder() error {
	id := c.tr.start("ladder", 0)
	defer c.tr.end(id)
	l := c.it.Layers
	workload.ConfigureSpill(workload.SpillConfig{})
	ws := workload.PerlGcc()
	instr := float64(len(ws) * ladderInstr)
	perInstr := func(sec float64) float64 { return sec * 1e9 / instr }

	// Capture: VM execution into in-memory columns, from an empty memo.
	var resident int64
	sec, alloc, err := timeRow(func() error {
		workload.ResetMemo()
		for _, w := range ws {
			w.Replay(ladderInstr)
		}
		_, resident = workload.MemoStats()
		return nil
	})
	if err != nil {
		return err
	}
	l["workload.capture_ns_per_instr"] = perInstr(sec)
	l["workload.capture_bytes_per_instr"] = float64(resident) / instr
	l["workload.capture_alloc_bytes_per_instr"] = alloc / instr
	bss := make([]trace.BlockSource, len(ws))
	for i, w := range ws {
		bss[i] = w.Replay(ladderInstr)
	}
	eachTrace := func(fn func(bs trace.BlockSource) error) func() error {
		return func() error {
			for _, bs := range bss {
				if err := fn(bs); err != nil {
					return err
				}
			}
			return nil
		}
	}

	var accAlloc float64
	cfgs := map[string]sim.Config{}
	for _, f := range accuracyFamilies {
		cfg, err := f.point.SimConfig()
		if err != nil {
			return err
		}
		cfgs[f.name] = cfg
		sec, alloc, err := timeRow(eachTrace(func(bs trace.BlockSource) error {
			return accErr(sim.RunAccuracy(bs, ladderInstr, cfg))
		}))
		if err != nil {
			return fmt.Errorf("accuracy %s: %w", f.name, err)
		}
		l["sim.accuracy_ns_per_instr."+f.name] = perInstr(sec)
		accAlloc += alloc
	}
	l["sim.accuracy_alloc_bytes_per_instr"] = accAlloc / float64(len(accuracyFamilies)) / instr
	if sec, _, err = timeRow(eachTrace(func(bs trace.BlockSource) error {
		_, err := sim.RunCBTCtx(context.Background(), bs, ladderInstr, cbt.DefaultConfig())
		return err
	})); err != nil {
		return fmt.Errorf("cbt: %w", err)
	}
	l["sim.cbt_ns_per_instr"] = perInstr(sec)

	// Observer cost: the same solo run with a telemetry collector attached
	// (counters only, then with the misprediction event log).
	base := l["sim.accuracy_ns_per_instr.tagged-path"]
	for mode, tc := range map[string]telemetry.Config{"counters": {}, "full": {Events: 4096}} {
		sec, _, err := timeRow(eachTrace(func(bs trace.BlockSource) error {
			cfg := cfgs["tagged-path"]
			cfg.Telemetry = telemetry.NewCollector(tc)
			return accErr(sim.RunAccuracy(bs, ladderInstr, cfg))
		}))
		if err != nil {
			return fmt.Errorf("telemetry %s: %w", mode, err)
		}
		l["sim.telemetry_overhead_frac."+mode] = perInstr(sec)/base - 1
	}

	switch c.job {
	case "suite":
		return c.cpuRows(eachTrace, cfgs, perInstr, instr)
	case "sweep":
		return c.gangRows(eachTrace, instr)
	case "outofcore":
		return c.storeRows(bss, perInstr, instr)
	}
	return nil
}

func (c *child) cpuRows(eachTrace func(func(trace.BlockSource) error) func() error, cfgs map[string]sim.Config, perInstr func(float64) float64, instr float64) error {
	l := c.it.Layers
	var alloc float64
	for _, name := range []string{"btb", "tagged-path"} {
		cfg := cfgs[name]
		sec, a, err := timeRow(eachTrace(func(bs trace.BlockSource) error {
			return cpu.New(cpu.DefaultConfig(), sim.NewEngine(cfg)).RunReplayCtx(context.Background(), bs, ladderInstr).Err
		}))
		if err != nil {
			return fmt.Errorf("cpu replay %s: %w", name, err)
		}
		l["cpu.replay_ns_per_instr."+name] = perInstr(sec)
		alloc += a
	}
	sec, a, err := timeRow(eachTrace(func(bs trace.BlockSource) error {
		return cpu.NewEvent(cpu.DefaultConfig(), sim.NewEngine(cfgs["btb"])).Run(bs.Open(), ladderInstr).Err
	}))
	if err != nil {
		return fmt.Errorf("cpu event: %w", err)
	}
	l["cpu.event_ns_per_instr"] = perInstr(sec)
	l["cpu.alloc_bytes_per_instr"] = (alloc + a) / 3 / instr
	return nil
}

// gangRows times the fused kernel at widths 1, 4 and 16 over the first
// gangable points of the sweep's own expansion, then predicts the sweep's
// CPU time from its gang plan and prints the unexplained remainder.
func (c *child) gangRows(eachTrace func(func(trace.BlockSource) error) func() error, instr float64) error {
	l := c.it.Layers
	var members []sim.GangPoint
	for _, p := range c.sweepPoints {
		if p.Family == "btb" || p.Workload != c.sweepPoints[0].Workload || p.History != "pattern" {
			continue
		}
		cfg, err := p.SimConfig()
		if err != nil {
			return err
		}
		// Members with equal keys build identical history providers,
		// the contract sim.GangPoint.HistShare asks of its caller.
		members = append(members, sim.GangPoint{Config: cfg, HistShare: p.History + "#" + strconv.Itoa(p.HistBits)})
	}
	if len(members) < gangWidths[len(gangWidths)-1] {
		return fmt.Errorf("only %d gangable points", len(members))
	}
	var alloc float64
	cost := map[int]float64{} // ns per member-instruction by width
	for _, w := range gangWidths {
		sec, a, err := timeRow(eachTrace(func(bs trace.BlockSource) error {
			rs, ok := sim.RunAccuracyGang(bs, ladderInstr, members[:w])
			if !ok {
				return fmt.Errorf("gang of %d refused", w)
			}
			for _, r := range rs {
				if err := accErr(r); err != nil {
					return err
				}
			}
			return nil
		}))
		if err != nil {
			return fmt.Errorf("gang w%d: %w", w, err)
		}
		cost[w] = sec * 1e9 / instr / float64(w)
		l[fmt.Sprintf("sim.gang_ns_per_member_instr.w%d", w)] = cost[w]
		alloc += a / float64(w)
	}
	l["sim.gang_alloc_bytes_per_member_instr"] = alloc / float64(len(gangWidths)) / instr

	// Reconciliation: width-1 passes are the btb family's direct points
	// (half default, half 2-bit); wider passes cost their width times the
	// per-member cost, interpolated between the measured widths.
	direct := (l["sim.accuracy_ns_per_instr.btb"] + l["sim.accuracy_ns_per_instr.btb-2bit"]) / 2
	var predictedNS float64
	for _, plan := range c.sweepPlans {
		for w, n := range plan.Gangs {
			per := direct
			if w > 1 {
				per = float64(w) * interpolate(cost, w)
			}
			predictedNS += float64(n) * per * sweepBudget
		}
	}
	l["sweep.unattributed_frac"] = 1 - predictedNS/1e9/c.it.CPUS
	return nil
}

// interpolate returns the per-member cost at width w, linear between the
// measured gang widths and clamped beyond them.
func interpolate(cost map[int]float64, w int) float64 {
	lo := gangWidths[0]
	for _, hi := range gangWidths[1:] {
		if w <= hi {
			f := float64(w-lo) / float64(hi-lo)
			return cost[lo] + f*(cost[hi]-cost[lo])
		}
		lo = hi
	}
	return cost[lo]
}

// storeRows times the spill write (trace.WriteStore, compressed as
// workload.ConfigureSpill writes it) and cold reads of every block through
// trace.OpenStore/BlockAt, compressed and raw.
func (c *child) storeRows(bss []trace.BlockSource, perInstr func(float64) float64, instr float64) error {
	l := c.it.Layers
	write := func(compress bool) (int64, error) {
		var size int64
		for i, bs := range bss {
			path := filepath.Join(c.workdir, fmt.Sprintf("ladder-%d-%d-%t.tcstore", os.Getpid(), i, compress))
			f, err := os.Create(path)
			if err != nil {
				return 0, err
			}
			_, werr := trace.WriteStore(f, bs.Open(), trace.StoreOptions{Compress: compress})
			st, serr := f.Stat()
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return 0, werr
			}
			if serr != nil {
				return 0, serr
			}
			size += st.Size()
		}
		return size, nil
	}
	defer func() {
		paths, _ := filepath.Glob(filepath.Join(c.workdir, fmt.Sprintf("ladder-%d-*.tcstore", os.Getpid())))
		for _, p := range paths {
			os.Remove(p)
		}
	}()
	var disk int64
	sec, _, err := timeRow(func() error {
		var err error
		disk, err = write(true)
		return err
	})
	if err != nil {
		return fmt.Errorf("spill: %w", err)
	}
	l["workload.spill_ns_per_instr"] = perInstr(sec)
	l["workload.spill_disk_bytes_per_instr"] = float64(disk) / instr
	if _, err := write(false); err != nil {
		return fmt.Errorf("spill raw: %w", err)
	}

	var alloc float64
	for _, compress := range []bool{true, false} {
		sec, a, err := timeRow(func() error {
			for i := range bss {
				if err := readStore(filepath.Join(c.workdir, fmt.Sprintf("ladder-%d-%d-%t.tcstore", os.Getpid(), i, compress))); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("store read: %w", err)
		}
		name := "raw"
		if compress {
			name = "flate"
		}
		l["trace.store_read_ns_per_instr."+name] = perInstr(sec)
		alloc += a
	}
	l["trace.store_read_alloc_bytes_per_instr"] = alloc / 2 / instr
	return nil
}

// readStore opens a store with a cold cache and decodes every block.
func readStore(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	s, err := trace.OpenStore(f, st.Size(), 0)
	if err != nil {
		return err
	}
	for i := 0; i < s.NumBlocks(); i++ {
		if _, err := s.BlockAt(i); err != nil {
			return err
		}
	}
	return nil
}
