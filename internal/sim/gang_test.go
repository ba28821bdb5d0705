package sim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/btb"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// gangPoints builds a history-diverse gang over the paper's baseline front
// end: every fusable target-cache family, pattern and path histories at
// mixed depths, with share keys marking the members whose history configs
// are identical.
func gangPoints() []GangPoint {
	pattern := func(bits int) func() history.Provider {
		return func() history.Provider { return history.NewPatternProvider(bits) }
	}
	path := func(bits int) func() history.Provider {
		return func() history.Provider {
			return history.NewPath(history.PathConfig{Bits: bits, BitsPerTarget: 1, AddrBitOffset: 2, Filter: history.FilterIndJmp})
		}
	}
	return []GangPoint{
		{Config: DefaultConfig().WithTargetCache(
			func() core.TargetCache {
				return core.NewTagless(core.TaglessConfig{Entries: 512, Scheme: core.SchemeGshare})
			}, pattern(9)), HistShare: "pattern#9"},
		{Config: DefaultConfig().WithTargetCache(
			func() core.TargetCache {
				return core.NewTagless(core.TaglessConfig{Entries: 128, Scheme: core.SchemeGAg})
			}, pattern(9)), HistShare: "pattern#9"},
		{Config: DefaultConfig().WithTargetCache(
			func() core.TargetCache {
				return core.NewTagged(core.TaggedConfig{Entries: 512, Ways: 4, HistBits: 9})
			}, pattern(6)), HistShare: "pattern#6"},
		{Config: DefaultConfig().WithTargetCache(
			func() core.TargetCache { return core.NewCascaded(core.DefaultCascadedConfig()) },
			path(8)), HistShare: "path-indjmp#8"},
		{Config: DefaultConfig().WithTargetCache(
			func() core.TargetCache { return core.NewITTAGE(core.DefaultITTAGEConfig()) },
			path(8)), HistShare: "path-indjmp#8"},
		// No share key: a private provider even though pattern#9 exists.
		{Config: DefaultConfig().WithTargetCache(
			func() core.TargetCache { return core.NewLastTarget(256, 2) },
			pattern(9))},
	}
}

// TestGangMatchesSolo pins the fused kernel's equivalence contract: every
// member of a gang reports an AccuracyResult struct-identical to the
// streaming reference loop's run of the same config, at gang widths 1, a
// mixed prefix, and the full history-heterogeneous set, without flushes
// and with a flush interval the whole gang shares.
func TestGangMatchesSolo(t *testing.T) {
	w, err := workload.ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 60_000
	rep := trace.Capture(trace.NewLimit(w.Open(), budget))
	ctx := context.Background()
	pts := gangPoints()
	for _, flush := range []int64{0, 7_777} {
		solo := make([]AccuracyResult, len(pts))
		for i, pt := range pts {
			solo[i] = RunAccuracyWithFlushes(opaqueFactory{rep}, budget, flush, pt.Config)
		}
		for _, width := range []int{1, 3, len(pts)} {
			for lo := 0; lo < len(pts); lo += width {
				hi := min(lo+width, len(pts))
				got, ok := RunAccuracyGangCtx(ctx, rep, budget, flush, pts[lo:hi])
				if !ok {
					t.Fatalf("flush %d width %d members [%d,%d): gang refused to fuse", flush, width, lo, hi)
				}
				for i, res := range got {
					if res != solo[lo+i] {
						t.Errorf("flush %d width %d member %d diverges from solo run\n  gang %+v\n  solo %+v",
							flush, width, lo+i, res, solo[lo+i])
					}
				}
			}
		}
	}
}

// laneGrid returns the sweep's btb-family geometries: 256..8192 entries
// × 1, 2 and 4 ways × the default and 2-bit update strategies, 36 BTB
// configurations.
func laneGrid() []btb.Config {
	var grid []btb.Config
	for _, s := range []btb.Strategy{btb.StrategyDefault, btb.StrategyTwoBit} {
		for entries := 256; entries <= 8192; entries *= 2 {
			for _, ways := range []int{1, 2, 4} {
				grid = append(grid, btb.Config{Sets: entries / ways, Ways: ways, Strategy: s})
			}
		}
	}
	return grid
}

// withBTB returns the paper's baseline front end with BTB c.
func withBTB(c btb.Config) Config {
	cfg := DefaultConfig()
	cfg.BTB = c
	return cfg
}

// lanePoints builds a multi-lane gang: one BTB-only member per geometry
// of grid, a tagless member first (on grid[1]'s lane, which it opens), a
// tagged member mid-gang on the lane of grid's second-to-last geometry, a
// second BTB-only member on grid[0]'s lane, and last a BTB-only member on
// grid[0]'s geometry with a 2-deep RAS, a lane of its own.
func lanePoints(grid []btb.Config) []GangPoint {
	tagless := GangPoint{Config: withBTB(grid[1]).WithTargetCache(
		func() core.TargetCache {
			return core.NewTagless(core.TaglessConfig{Entries: 512, Scheme: core.SchemeGshare})
		},
		func() history.Provider { return history.NewPatternProvider(9) }), HistShare: "pattern#9"}
	tagged := GangPoint{Config: withBTB(grid[len(grid)-2]).WithTargetCache(
		func() core.TargetCache {
			return core.NewTagged(core.TaggedConfig{Entries: 256, Ways: 4, HistBits: 9})
		},
		func() history.Provider {
			return history.NewPath(history.PathConfig{Bits: 9, BitsPerTarget: 1, AddrBitOffset: 2, Filter: history.FilterIndJmp})
		}), HistShare: "path-indjmp#9"}
	pts := []GangPoint{tagless}
	for i, c := range grid {
		if i == len(grid)/2 {
			pts = append(pts, tagged)
		}
		pts = append(pts, GangPoint{Config: withBTB(c)})
	}
	shallow := withBTB(grid[0])
	shallow.RASDepth = 2
	return append(pts, GangPoint{Config: withBTB(grid[0])}, GangPoint{Config: shallow})
}

// TestGangLanesMatchSolo extends the equivalence contract to gangs whose
// members differ in BTB configuration and RAS depth: the sweep's 36 BTB
// geometries as 36 lanes plus a shallow-RAS lane, with target-cache
// members on two different lanes and BTB-only members carrying
// collectors. Every result is struct-identical to the streaming loop's
// and every collector deep-equal to its streaming run's, at widths 1, 3
// and full.
func TestGangLanesMatchSolo(t *testing.T) {
	for _, name := range []string{"perl", "gcc"} {
		t.Run(name, func(t *testing.T) {
			w, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			const budget = 200_000
			rep := trace.Capture(trace.NewLimit(w.Open(), budget))
			mk := func() ([]GangPoint, []*telemetry.Collector) {
				pts := lanePoints(laneGrid())
				cols := make([]*telemetry.Collector, len(pts))
				for i := range pts {
					// Both target-cache members (0 and the mid-gang one) and
					// every third BTB-only member carry a collector.
					if i%3 == 0 || pts[i].Config.NewTargetCache != nil {
						cols[i] = telemetry.NewCollector(telemetry.Config{Events: 8})
						pts[i].Config.Telemetry = cols[i]
					}
				}
				return pts, cols
			}
			solo, soloCols := mk()
			want := make([]AccuracyResult, len(solo))
			for i, pt := range solo {
				want[i] = RunAccuracyCtx(context.Background(), opaqueFactory{rep}, budget, pt.Config)
			}
			for _, width := range []int{1, 3, len(solo)} {
				pts, cols := mk()
				for lo := 0; lo < len(pts); lo += width {
					hi := min(lo+width, len(pts))
					got, ok := RunAccuracyGang(rep, budget, pts[lo:hi])
					if !ok {
						t.Fatalf("width %d members [%d,%d): gang refused to fuse", width, lo, hi)
					}
					for i, res := range got {
						if res != want[lo+i] {
							t.Errorf("width %d member %d (%+v) diverges from solo\n  gang %+v\n  solo %+v",
								width, lo+i, pts[lo+i].Config.BTB, res, want[lo+i])
						}
					}
				}
				for i, col := range cols {
					if col != nil && !reflect.DeepEqual(col, soloCols[i]) {
						t.Errorf("width %d member %d: collector differs from the solo run's", width, i)
					}
				}
			}
		})
	}
}

// TestGangSharedHistoryMatchesPrivate verifies that history sharing is
// invisible in the results: the same gang with all share keys cleared
// (every member gets a private provider) reports identical results.
func TestGangSharedHistoryMatchesPrivate(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 40_000
	rep := trace.Capture(trace.NewLimit(w.Open(), budget))
	shared := gangPoints()
	private := gangPoints()
	for i := range private {
		private[i].HistShare = ""
	}
	got, ok := RunAccuracyGang(rep, budget, shared)
	want, ok2 := RunAccuracyGang(rep, budget, private)
	if !ok || !ok2 {
		t.Fatal("gang refused to fuse")
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("member %d: shared-history result diverges from private providers\n  shared  %+v\n  private %+v",
				i, got[i], want[i])
		}
	}
}

// TestGangFallbackConditions enumerates every condition under which the
// gang must refuse to fuse and hand the caller back to per-point runs,
// and the member differences it must fuse.
func TestGangFallbackConditions(t *testing.T) {
	w, err := workload.ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 10_000
	rep := trace.Capture(trace.NewLimit(w.Open(), budget))
	base := gangPoints()

	t.Run("empty", func(t *testing.T) {
		if _, ok := RunAccuracyGang(rep, budget, nil); ok {
			t.Error("empty gang fused")
		}
	})
	t.Run("streaming-only-factory", func(t *testing.T) {
		if _, ok := RunAccuracyGang(opaqueFactory{rep}, budget, base); ok {
			t.Error("gang fused over a factory with no BlockSource")
		}
	})
	t.Run("tc-without-history", func(t *testing.T) {
		pts := append([]GangPoint(nil), base...)
		cfg := pts[3].Config
		cfg.NewHistory = nil
		pts[3].Config = cfg
		if _, ok := RunAccuracyGang(rep, budget, pts); ok {
			t.Error("gang fused a target-cache member without a history")
		}
	})
	t.Run("dirpred-mismatch", func(t *testing.T) {
		pts := append([]GangPoint(nil), base...)
		cfg := pts[2].Config
		cfg.Dir.HistoryBits--
		pts[2].Config = cfg
		if _, ok := RunAccuracyGang(rep, budget, pts); ok {
			t.Error("gang fused members with different direction predictors")
		}
	})
	// Neither a BTB nor a RAS mismatch is a reason to refuse: the member
	// opens a lane of its own.
	for name, mutate := range map[string]func(*Config){
		"btb-mismatch-fuses": func(cfg *Config) { cfg.BTB.Ways = 2 },
		"ras-mismatch-fuses": func(cfg *Config) { cfg.RASDepth = 8 },
	} {
		t.Run(name, func(t *testing.T) {
			pts := append([]GangPoint(nil), base...)
			cfg := pts[1].Config
			mutate(&cfg)
			pts[1].Config = cfg
			got, ok := RunAccuracyGang(rep, budget, pts)
			if !ok {
				t.Fatal("gang refused members that differ only in their lane")
			}
			for i, pt := range pts {
				if want := RunAccuracy(opaqueFactory{rep}, budget, pt.Config); got[i] != want {
					t.Errorf("member %d diverges from solo\n  gang %+v\n  solo %+v", i, got[i], want)
				}
			}
		})
	}
}

// TestGangBTBOnlyAndTelemetryMatchSolo extends the equivalence contract to
// the two member kinds the suite adds: BTB-only members riding the gang's
// front end, and members carrying telemetry collectors. Every result is
// struct-identical to the streaming loop's and every collector deep-equal
// to the collector of that streaming run, at widths 1 and full.
func TestGangBTBOnlyAndTelemetryMatchSolo(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 60_000
	rep := trace.Capture(trace.NewLimit(w.Open(), budget))
	mk := func(withTel bool) ([]GangPoint, []*telemetry.Collector) {
		pts := append([]GangPoint{{Config: DefaultConfig()}}, gangPoints()...)
		pts = append(pts, GangPoint{Config: DefaultConfig()})
		cols := make([]*telemetry.Collector, len(pts))
		for i := range pts {
			// Leave one target-cache member without a collector.
			if withTel && i != 2 {
				cols[i] = telemetry.NewCollector(telemetry.Config{Events: 8})
				pts[i].Config.Telemetry = cols[i]
			}
		}
		return pts, cols
	}
	solo, soloCols := mk(true)
	want := make([]AccuracyResult, len(solo))
	for i, pt := range solo {
		want[i] = RunAccuracy(opaqueFactory{rep}, budget, pt.Config)
	}
	for _, withTel := range []bool{false, true} {
		for _, width := range []int{1, len(solo)} {
			pts, cols := mk(withTel)
			for lo := 0; lo < len(pts); lo += width {
				got, ok := RunAccuracyGang(rep, budget, pts[lo:lo+width])
				if !ok {
					t.Fatalf("telemetry %v width %d: gang refused to fuse", withTel, width)
				}
				for i, res := range got {
					if res != want[lo+i] {
						t.Errorf("telemetry %v width %d member %d diverges from solo\n  gang %+v\n  solo %+v",
							withTel, width, lo+i, res, want[lo+i])
					}
				}
			}
			for i, col := range cols {
				if col != nil && !reflect.DeepEqual(col, soloCols[i]) {
					t.Errorf("width %d member %d: collector differs from the solo run's", width, i)
				}
			}
		}
	}
}

// gangShapes are the gangs the error and cancellation contracts run: the
// single-lane history-diverse gang and a multi-lane gang mixing BTB
// geometries, strategies and member kinds.
func gangShapes() map[string][]GangPoint {
	grid := laneGrid()
	return map[string][]GangPoint{
		"single-lane": gangPoints(),
		"multi-lane":  append(lanePoints([]btb.Config{grid[0], grid[7], grid[20], grid[35]}), gangPoints()...),
	}
}

// TestGangErrorContract pins the fused kernel's corrupt-replay behaviour
// against the streaming loop: same partial counters per member, and the
// same ErrCorrupt surfaced only when the budget reaches past the cleanly
// decoded prefix.
func TestGangErrorContract(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	rep := trace.Capture(trace.NewLimit(w.Open(), 20_000))
	buf := rep.Bytes()
	damaged := trace.NewReplayBytes(buf[:len(buf)*3/4], rep.Len())
	for shape, pts := range gangShapes() {
		for _, budget := range []int64{1_000, rep.Len()} {
			got, ok := RunAccuracyGang(damaged, budget, pts)
			if !ok {
				t.Fatalf("%s budget %d: gang refused to fuse", shape, budget)
			}
			for i, pt := range pts {
				want := RunAccuracy(opaqueFactory{damaged}, budget, pt.Config)
				gotErr, wantErr := got[i].Err, want.Err
				got[i].Err, want.Err = nil, nil
				if got[i] != want {
					t.Errorf("%s budget %d member %d: counters diverge\n  gang %+v\n  solo %+v", shape, budget, i, got[i], want)
				}
				switch {
				case gotErr == nil && wantErr == nil:
				case gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error():
					t.Errorf("%s budget %d member %d: error mismatch: gang %v, solo %v", shape, budget, i, gotErr, wantErr)
				}
			}
		}
	}
}

// TestGangCancellation pins partial results under a cancelled context:
// every member stops at the same poll boundary the streaming loop stops
// at.
func TestGangCancellation(t *testing.T) {
	w, err := workload.ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 100_000
	rep := trace.Capture(trace.NewLimit(w.Open(), budget))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for shape, pts := range gangShapes() {
		got, ok := RunAccuracyGangCtx(ctx, rep, budget, 0, pts)
		if !ok {
			t.Fatalf("%s: gang refused to fuse", shape)
		}
		for i, pt := range pts {
			want := RunAccuracyCtx(ctx, opaqueFactory{rep}, budget, pt.Config)
			if got[i].Err != context.Canceled || want.Err != context.Canceled {
				t.Fatalf("%s member %d: expected context.Canceled, gang %v solo %v", shape, i, got[i].Err, want.Err)
			}
			got[i].Err, want.Err = nil, nil
			if got[i] != want {
				t.Errorf("%s member %d: cancelled partial counters diverge\n  gang %+v\n  solo %+v", shape, i, got[i], want)
			}
		}
	}
}

// BenchmarkGangVsSolo measures the fused kernel's amortization: one pass
// updating 8 tagless configs against 8 separate width-1 passes, and one
// pass over the sweep's 36 BTB geometries (36 lanes) against 36 width-1
// passes.
func BenchmarkGangVsSolo(b *testing.B) {
	const budget = 1_000_000
	w, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	rep := w.Replay(budget)
	var tagless []GangPoint
	for _, entries := range []int{64, 128, 256, 512, 1024, 2048, 4096, 8192} {
		e := entries
		tagless = append(tagless, GangPoint{
			Config: DefaultConfig().WithTargetCache(
				func() core.TargetCache {
					return core.NewTagless(core.TaglessConfig{Entries: e, Scheme: core.SchemeGshare})
				},
				func() history.Provider { return history.NewPatternProvider(9) }),
			HistShare: "pattern#9",
		})
	}
	var lanes []GangPoint
	for _, c := range laneGrid() {
		lanes = append(lanes, GangPoint{Config: withBTB(c)})
	}
	for _, bc := range []struct {
		name string
		pts  []GangPoint
	}{{"8", tagless}, {"lanes-36", lanes}} {
		pts := bc.pts
		b.Run("gang-"+bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := RunAccuracyGang(rep, budget, pts); !ok {
					b.Fatal("gang refused to fuse")
				}
			}
			b.ReportMetric(float64(int64(len(pts))*budget*int64(b.N))/b.Elapsed().Seconds()/1e6, "Mpointinstr/s")
		})
		b.Run("solo-"+bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, pt := range pts {
					RunAccuracy(rep, budget, pt.Config)
				}
			}
			b.ReportMetric(float64(int64(len(pts))*budget*int64(b.N))/b.Elapsed().Seconds()/1e6, "Mpointinstr/s")
		})
	}
}
