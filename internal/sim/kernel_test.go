package sim

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/trace"
	"repro/internal/workload"
)

// opaqueFactory hides a capture's concrete type from RunAccuracyCtx's
// dispatch, forcing the streaming reference loop over the same records the
// batched kernel consumes.
type opaqueFactory struct{ rep trace.Factory }

func (f opaqueFactory) Open() trace.Source { return f.rep.Open() }

// kernelConfigs covers every dispatch arm in runAccuracyBlocks: the
// BTB-only baseline, each instantiated (target cache, history) pairing,
// and a cache outside the switch that lands on the interface-typed
// fallback instantiation.
func kernelConfigs() map[string]Config {
	return map[string]Config{
		"baseline": DefaultConfig(),
		"tagless-pattern": DefaultConfig().WithTargetCache(
			func() core.TargetCache {
				return core.NewTagless(core.TaglessConfig{Entries: 512, Scheme: core.SchemeGshare})
			},
			func() history.Provider { return history.NewPatternProvider(9) },
		),
		"tagged-path": DefaultConfig().WithTargetCache(
			func() core.TargetCache {
				return core.NewTagged(core.TaggedConfig{Entries: 512, Ways: 4, HistBits: 9})
			},
			func() history.Provider {
				return history.NewPath(history.PathConfig{Bits: 9, BitsPerTarget: 3, AddrBitOffset: 2})
			},
		),
		"cascaded": DefaultConfig().WithTargetCache(
			func() core.TargetCache { return core.NewCascaded(core.DefaultCascadedConfig()) },
			func() history.Provider { return history.NewPatternProvider(9) },
		),
		"ittage": DefaultConfig().WithTargetCache(
			func() core.TargetCache { return core.NewITTAGE(core.DefaultITTAGEConfig()) },
			func() history.Provider { return history.NewPatternProvider(9) },
		),
		"fallback-lasttarget": DefaultConfig().WithTargetCache(
			func() core.TargetCache { return core.NewLastTarget(256, 2) },
			func() history.Provider { return history.NewPatternProvider(9) },
		),
	}
}

// TestKernelMatchesGenericLoop pins the batched accuracy
// kernel against the streaming reference loop: identical AccuracyResult,
// field for field, for every dispatch arm, with and without periodic
// flushes.
func TestKernelMatchesGenericLoop(t *testing.T) {
	w, err := workload.ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 60_000
	rep := trace.Capture(trace.NewLimit(w.Open(), budget))
	ctx := context.Background()
	for name, cfg := range kernelConfigs() {
		for _, flush := range []int64{0, 7_777} {
			got := RunAccuracyWithFlushesCtx(ctx, rep, budget, flush, cfg)
			want := RunAccuracyWithFlushesCtx(ctx, opaqueFactory{rep}, budget, flush, cfg)
			if got != want {
				t.Errorf("%s flush=%d: kernel result diverges\n  kernel  %+v\n  generic %+v", name, flush, got, want)
			}
		}
	}
}

// BenchmarkRunAccuracy measures accuracy-simulation throughput over a
// memoized replay (the batched kernel) for the BTB-only
// baseline and a target-cache configuration, with the streaming reference
// loop alongside for comparison.
func BenchmarkRunAccuracy(b *testing.B) {
	const budget = 1_000_000
	w, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	rep := w.Replay(budget)
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"baseline", DefaultConfig()},
		{"tagless-pattern", kernelConfigs()["tagless-pattern"]},
	}
	for _, c := range cfgs {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				RunAccuracy(rep, budget, c.cfg)
			}
			b.ReportMetric(float64(budget*int64(b.N))/b.Elapsed().Seconds()/1e6, "Minstr/s")
		})
		b.Run(c.name+"-streaming", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				RunAccuracy(opaqueFactory{rep}, budget, c.cfg)
			}
			b.ReportMetric(float64(budget*int64(b.N))/b.Elapsed().Seconds()/1e6, "Minstr/s")
		})
	}
}

// TestKernelErrorContract pins the kernel's corrupt-replay behaviour
// against the streaming loop: same partial counters, and the same
// ErrCorrupt surfaced only when the budget reaches past the cleanly
// decoded prefix.
func TestKernelErrorContract(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	rep := trace.Capture(trace.NewLimit(w.Open(), 20_000))
	buf := rep.Bytes()
	damaged := trace.NewReplayBytes(buf[:len(buf)*3/4], rep.Len())
	cfg := kernelConfigs()["tagless-pattern"]
	ctx := context.Background()
	for _, budget := range []int64{1_000, rep.Len()} {
		got := RunAccuracyCtx(ctx, damaged, budget, cfg)
		want := RunAccuracyCtx(ctx, opaqueFactory{damaged}, budget, cfg)
		gotErr, wantErr := got.Err, want.Err
		got.Err, want.Err = nil, nil
		if got != want {
			t.Errorf("budget %d: counters diverge\n  kernel  %+v\n  generic %+v", budget, got, want)
		}
		switch {
		case gotErr == nil && wantErr == nil:
		case gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error():
			t.Errorf("budget %d: error mismatch: kernel %v, generic %v", budget, gotErr, wantErr)
		}
	}
}
