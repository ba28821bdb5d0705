package trace_test

// Wide-fallback tests: a block stores its value columns as uint32 when
// every value fits and as uint64 otherwise. The differential below runs
// one capture through every column-reading kernel as all-narrow,
// forced-wide and mixed blocks and requires struct-identical results; the
// wide-record tests pin the per-block fallback in each producer (capture,
// v2 decode, TCSTORE1 decode) and the kernels' wide path against the
// streaming reference loops, which never see the columns.

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/btb"
	"repro/internal/cbt"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/history"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// kernelResults is everything the column-reading kernels report for one
// capture.
type kernelResults struct {
	Accuracy []sim.AccuracyResult
	Timing   []cpu.Result
	CBT      stats.Counter
	CBTErr   error
	Stats    *trace.Stats
	StatsErr error
}

// widePoints is a gang with two RAS lanes over one BTB, a second BTB
// lane, BTB-only members and target-cache members of both history kinds.
func widePoints() []sim.GangPoint {
	base := sim.DefaultConfig()
	pattern := func() history.Provider { return history.NewPatternProvider(9) }
	path := func() history.Provider {
		return history.NewPath(history.PathConfig{Bits: 9, BitsPerTarget: 1, AddrBitOffset: 2, Filter: history.FilterIndJmp})
	}
	tagless := base.WithTargetCache(func() core.TargetCache {
		return core.NewTagless(core.TaglessConfig{Entries: 512, Scheme: core.SchemeGshare})
	}, pattern)
	tagged := base.WithTargetCache(func() core.TargetCache {
		return core.NewTagged(core.TaggedConfig{Entries: 256, Ways: 4, HistBits: 9})
	}, path)
	shallow := base
	shallow.RASDepth = 2
	small := base
	small.BTB = btb.Config{Sets: 16, Ways: 2}
	return []sim.GangPoint{{Config: base}, {Config: tagless}, {Config: tagged}, {Config: shallow}, {Config: small}}
}

// runKernels runs every column-reading kernel over bs: the accuracy gang
// (with flushes), the timing gang, the CBT driver and trace.Stats.
func runKernels(t *testing.T, bs trace.BlockSource, budget int64) kernelResults {
	t.Helper()
	ctx := context.Background()
	var res kernelResults
	var ok bool
	if res.Accuracy, ok = sim.RunAccuracyGangCtx(ctx, bs, budget, 5_000, widePoints()); !ok {
		t.Fatal("accuracy gang refused the points")
	}
	var ms []*cpu.Machine
	for _, pt := range widePoints()[:3] {
		ms = append(ms, cpu.New(cpu.DefaultConfig(), sim.NewEngine(pt.Config)))
	}
	res.Timing = cpu.RunReplayGang(ctx, bs, budget, ms)
	res.CBT, res.CBTErr = sim.RunCBTCtx(ctx, bs, budget, cbt.DefaultConfig())
	res.Stats, res.StatsErr = trace.NewStats().ConsumeBatches(bs, budget)
	return res
}

// TestWideColumnsMatchNarrow runs one capture as all-narrow, forced-wide
// and mixed blocks through every column-reading kernel; the results must
// be struct-identical.
func TestWideColumnsMatchNarrow(t *testing.T) {
	const budget = 3*trace.BlockLen + 1_000
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	narrow := trace.CaptureSized(trace.NewLimit(w.Open(), budget), budget).Blocks()
	for bi := 0; bi < narrow.NumBlocks(); bi++ {
		if narrow.Block(bi).IsWide() {
			t.Fatalf("gcc block %d is wide", bi)
		}
	}
	want := runKernels(t, narrow, budget)
	for name, pick := range map[string]func(int) bool{
		"wide":  func(int) bool { return true },
		"mixed": func(bi int) bool { return bi == 1 },
	} {
		bs := trace.WidenBlocks(narrow, pick)
		for bi := 0; bi < bs.NumBlocks(); bi++ {
			if bs.Block(bi).IsWide() != pick(bi) {
				t.Fatalf("%s: block %d IsWide = %v", name, bi, !pick(bi))
			}
		}
		if got := runKernels(t, bs, budget); !reflect.DeepEqual(got, want) {
			t.Errorf("%s blocks diverge from narrow:\n  got  %+v\n  want %+v", name, got, want)
		}
	}
}

// wideRecords returns a gcc capture's records with one record in the
// middle of block 1 rewritten to carry values of 2^32 and above: an
// indirect jump from a high PC to a high target.
func wideRecords(t *testing.T, n int) ([]trace.Record, int) {
	t.Helper()
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	recs := trace.Collect(trace.NewLimit(w.Open(), int64(n)))
	at := trace.BlockLen + trace.BlockLen/2
	recs[at] = trace.Record{PC: 1<<40 + 0x100, Target: 1<<33 + 0x40, Addr: 1 << 32, Class: trace.ClassIndJump, Op: trace.OpBranch, Taken: true}
	return recs, at
}

// TestWideRecordMidBlock pins the per-block fallback: one wide record
// widens its own block only, in the capture builder, the v2 decoder and
// the store decoder alike, and every record reads back exactly.
func TestWideRecordMidBlock(t *testing.T) {
	recs, at := wideRecords(t, 3*trace.BlockLen+100)
	rep := trace.Capture(trace.NewSliceSource(recs))
	var img bytes.Buffer
	if _, err := trace.WriteStore(&img, trace.NewSliceSource(recs), trace.StoreOptions{GroupRecords: 2 * trace.BlockLen}); err != nil {
		t.Fatal(err)
	}
	store, err := trace.OpenStore(bytes.NewReader(img.Bytes()), int64(img.Len()), 0)
	if err != nil {
		t.Fatal(err)
	}
	wideBlock := at / trace.BlockLen
	for name, bs := range map[string]trace.BlockSource{
		"capture": rep.Blocks(),
		"decode":  trace.NewReplayBytes(rep.Bytes(), rep.Len()).Blocks(),
		"store":   store,
	} {
		var r trace.Record
		for bi := 0; bi < bs.NumBlocks(); bi++ {
			blk, err := bs.BlockAt(bi)
			if err != nil {
				t.Fatalf("%s: BlockAt(%d): %v", name, bi, err)
			}
			if blk.IsWide() != (bi == wideBlock) {
				t.Errorf("%s: block %d IsWide = %v", name, bi, blk.IsWide())
			}
			for i := 0; i < blk.Len(); i++ {
				if blk.Record(i, &r); r != recs[bi*trace.BlockLen+i] {
					t.Fatalf("%s: record %d = %+v, want %+v", name, bi*trace.BlockLen+i, r, recs[bi*trace.BlockLen+i])
				}
			}
		}
	}
	wantBytes := int64(len(recs))*trace.NarrowRecordBytes + trace.BlockLen*(trace.WideRecordBytes-trace.NarrowRecordBytes)
	if got := rep.MemBytes(); got != wantBytes {
		t.Errorf("MemBytes = %d, want %d", got, wantBytes)
	}
}

// TestWideRecordKernelsMatchStreaming runs a capture with a wide record
// mid-block through the batched kernels and through their streaming
// reference loops, which read materialized Records instead of columns.
func TestWideRecordKernelsMatchStreaming(t *testing.T) {
	recs, _ := wideRecords(t, 3*trace.BlockLen+100)
	rep := trace.Capture(trace.NewSliceSource(recs))
	// Embedding the interface hides the BlockSource: the streaming path.
	streaming := struct{ trace.Factory }{rep}
	budget := int64(len(recs))
	ctx := context.Background()
	got := runKernels(t, rep, budget)
	for i, pt := range widePoints() {
		if want := sim.RunAccuracyWithFlushesCtx(ctx, streaming, budget, 5_000, pt.Config); got.Accuracy[i] != want {
			t.Errorf("accuracy member %d:\n  gang      %+v\n  streaming %+v", i, got.Accuracy[i], want)
		}
	}
	for i, pt := range widePoints()[:3] {
		want := cpu.New(cpu.DefaultConfig(), sim.NewEngine(pt.Config)).RunCtx(ctx, rep.Open(), budget)
		if got.Timing[i] != want {
			t.Errorf("timing member %d:\n  gang      %+v\n  streaming %+v", i, got.Timing[i], want)
		}
	}
	if want, err := sim.RunCBTCtx(ctx, streaming, budget, cbt.DefaultConfig()); got.CBT != want || got.CBTErr != err {
		t.Errorf("CBT: batched %+v (%v), streaming %+v (%v)", got.CBT, got.CBTErr, want, err)
	}
	if want := trace.NewStats().Consume(rep.Open()); !reflect.DeepEqual(got.Stats, want) {
		t.Errorf("stats: batched %+v, streaming %+v", got.Stats, want)
	}
}
