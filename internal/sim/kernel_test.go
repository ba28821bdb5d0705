package sim

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/trace"
	"repro/internal/workload"
)

// opaqueFactory hides a capture's BlockSource from RunAccuracyCtx, forcing
// the streaming reference loop over the same records the fused gang
// consumes.
type opaqueFactory struct{ rep trace.Factory }

func (f opaqueFactory) Open() trace.Source { return f.rep.Open() }

// kernelConfigs covers every dispatch arm a width-1 gang takes: the
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

// TestKernelMatchesGenericLoop pins the batched accuracy path (a width-1
// gang) against the streaming reference loop: identical AccuracyResult,
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
		for _, flush := range []int64{0, 1_000, 7_777} {
			got := RunAccuracyWithFlushesCtx(ctx, rep, budget, flush, cfg)
			want := RunAccuracyWithFlushesCtx(ctx, opaqueFactory{rep}, budget, flush, cfg)
			if got != want {
				t.Errorf("%s flush=%d: kernel result diverges\n  kernel  %+v\n  generic %+v", name, flush, got, want)
			}
		}
	}
}

// TestSegmentedOverStore runs the batched path over an out-of-core store,
// its other BlockSource, whose cache is bounded to three blocks so that
// it evicts continuously while the file's groups (its segments) stream
// past: the result must equal the batched path over the in-memory replay.
func TestSegmentedOverStore(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 20 * trace.BlockLen
	rep := trace.Capture(trace.NewLimit(w.Open(), budget))
	var img bytes.Buffer
	if _, err := trace.WriteStore(&img, rep.Open(), trace.StoreOptions{Compress: true, GroupRecords: 2 * trace.BlockLen}); err != nil {
		t.Fatal(err)
	}
	store, err := trace.OpenStore(bytes.NewReader(img.Bytes()), int64(img.Len()), 3*trace.BlockLen*(3*8+4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, flush := range []int64{0, 7_777} {
		cfg := kernelConfigs()["tagged-path"]
		want := RunAccuracyWithFlushesCtx(ctx, rep, budget, flush, cfg)
		if got := RunAccuracyWithFlushesCtx(ctx, store, budget, flush, cfg); got != want {
			t.Fatalf("flush=%d: store run diverges\n  store  %+v\n  memory %+v", flush, got, want)
		}
	}
	if st := store.CacheStats(); st.Evictions == 0 {
		t.Fatalf("store cache never evicted (stats %+v); cache bound too loose for the test", st)
	}
}

// BenchmarkRunAccuracy measures accuracy-simulation throughput over a
// memoized replay (a width-1 gang) for the BTB-only baseline and a
// target-cache configuration, with the streaming reference loop alongside
// for comparison.
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

// TestKernelErrorContract pins the batched path's corrupt-replay
// behaviour against the streaming loop: same partial counters, and the same
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
		if past := budget > damaged.CleanLen(); errors.Is(gotErr, trace.ErrCorrupt) != past {
			t.Errorf("budget %d (clean prefix %d): kernel error %v, want trace.ErrCorrupt iff the budget passes the clean prefix", budget, damaged.CleanLen(), gotErr)
		}
	}
}

// TestSegmentedCorruptTail damages only the last bytes of a capture, so
// a long clean prefix survives. A run whose budget reaches the damage
// stops at the clean prefix with trace.ErrCorrupt, and its partial
// counters equal a run over the intact capture cut at that prefix; a run
// whose budget ends inside the prefix never sees the damage and equals
// the intact run at the same budget.
func TestSegmentedCorruptTail(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 20 * trace.BlockLen
	rep := trace.Capture(trace.NewLimit(w.Open(), budget))
	buf := rep.Bytes()
	damaged := trace.NewReplayBytes(buf[:len(buf)-40], rep.Len())
	clean := damaged.CleanLen()
	if clean >= rep.Len() || clean < 8*trace.BlockLen {
		t.Fatalf("clean prefix %d of %d unsuitable for the test", clean, rep.Len())
	}
	cfg := kernelConfigs()["tagless-pattern"]
	ctx := context.Background()

	got := RunAccuracyCtx(ctx, damaged, budget, cfg)
	if !errors.Is(got.Err, trace.ErrCorrupt) {
		t.Fatalf("run over damaged capture: err=%v", got.Err)
	}
	got.Err = nil
	if want := RunAccuracyCtx(ctx, rep, clean, cfg); got != want {
		t.Fatalf("partial counters diverge from the clean-prefix run\n  damaged %+v\n  intact  %+v", got, want)
	}

	within := (clean / trace.BlockLen) * trace.BlockLen
	want := RunAccuracyCtx(ctx, rep, within, cfg)
	if got := RunAccuracyCtx(ctx, damaged, within, cfg); got != want {
		t.Fatalf("run within the clean prefix diverges\n  damaged %+v\n  intact  %+v", got, want)
	}
}
