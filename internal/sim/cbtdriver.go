package sim

import (
	"context"

	"repro/internal/cbt"
	"repro/internal/stats"
	"repro/internal/trace"
)

// RunCBT measures the case block table's indirect-jump target prediction
// accuracy over a trace. The CBT is consulted for indirect jumps only; a
// CBT miss counts as a misprediction (no BTB fallback), isolating the
// mechanism itself as the paper's Section 2 discussion does.
func RunCBT(factory trace.Factory, budget int64, cfg cbt.Config) stats.Counter {
	c, _ := RunCBTCtx(context.Background(), factory, budget, cfg)
	return c
}

// RunCBTCtx is RunCBT under a context. The returned error is non-nil when
// the run stopped early on cancellation or a corrupt trace source; the
// counter covers the records processed before the stop. Memoized replays
// run on the batched decode-once path.
func RunCBTCtx(ctx context.Context, factory trace.Factory, budget int64, cfg cbt.Config) (stats.Counter, error) {
	if bs, ok := blocksFor(factory); ok {
		return runCBTBlocks(ctx, bs, budget, cfg)
	}
	table := cbt.New(cfg)
	var c stats.Counter
	src := trace.NewLimit(factory.Open(), budget)
	var r trace.Record
	var n int64
	for src.Next(&r) {
		n++
		if n&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return c, err
			}
		}
		if !r.Class.IsTargetCachePredicted() {
			continue
		}
		tgt, ok := table.Predict(r.PC, r.Addr)
		c.Record(ok && tgt == r.Target)
		table.Update(&r)
	}
	return c, trace.SourceErr(src)
}

// runCBTBlocks is the CBT driver over decoded batches: indirect jumps are
// found with a one-byte class scan, and only those records materialize.
func runCBTBlocks(ctx context.Context, bs trace.BlockSource, budget int64, cfg cbt.Config) (stats.Counter, error) {
	table := cbt.New(cfg)
	var c stats.Counter
	limit := max(budget, 0)
	effEnd := min(limit, bs.CleanLen())
	var n int64
	for bi := 0; n < effEnd; bi++ {
		blk, err := bs.BlockAt(bi)
		if err != nil {
			return c, err
		}
		meta := blk.Meta[:min(int64(len(blk.Meta)), effEnd-n)]
		var done int
		if blk.IsWide() {
			done, err = cbtBlock(ctx, table, &c, n, meta, blk.Wide)
		} else {
			done, err = cbtBlock(ctx, table, &c, n, meta, blk.Narrow)
		}
		n += int64(done)
		if err != nil {
			return c, err
		}
	}
	if limit > bs.CleanLen() {
		return c, bs.TailErr()
	}
	return c, nil
}

// cbtBlock runs the CBT over one block's records meta, whose first record
// is the capture's record base, and returns the records it reached: all
// of them, or up to the poll position where ctx was found cancelled.
func cbtBlock[W trace.Word](ctx context.Context, table *cbt.CBT, c *stats.Counter, base int64, meta []uint8, cols trace.Columns[W]) (int, error) {
	pcs := cols.PC[:len(meta)]
	tgts := cols.Target[:len(meta)]
	addrs := cols.Addr[:len(meta)]
	var r trace.Record
	for i, mb := range meta {
		if (base+int64(i)+1)&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return i + 1, err
			}
		}
		cls := trace.Class(mb & trace.MetaClassMask)
		if cls != trace.ClassIndJump && cls != trace.ClassIndCall {
			continue
		}
		// The CBT reads only the pc, target, address and class.
		r = trace.Record{PC: uint64(pcs[i]), Target: uint64(tgts[i]), Addr: uint64(addrs[i]), Class: cls}
		tgt, ok := table.Predict(r.PC, r.Addr)
		c.Record(ok && tgt == r.Target)
		table.Update(&r)
	}
	return len(meta), nil
}
