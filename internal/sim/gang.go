package sim

import (
	"context"
	"slices"

	"repro/internal/btb"
	"repro/internal/core"
	"repro/internal/dirpred"
	"repro/internal/history"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Fused gang replay: one pass over a decoded block stream drives K
// predictor configurations in lockstep. It is the one batched accuracy
// path: RunAccuracyCtx runs any trace.BlockSource as a gang of width 1,
// and the streaming loop in flush.go is the reference it is pinned
// against. The sweep engine's grids multiply hundreds of points over the
// same handful of captures; here the traversal — and everything in the
// front end that evolves identically for every member — happens once per
// gang instead of once per point.
//
// Decode-once iteration: records come from trace.Blocks — the capture
// varint-decoded a single time process-wide — and non-branch records are
// skipped with a one-byte class check, never materializing a Record. The
// kernel inlines Engine.Predict/Engine.Resolve (no Engine calls, one BTB
// probe per branch per distinct BTB) and is instantiated per (target
// cache, history) type pair. That instantiation does not devirtualize the
// predictor calls: Go stencils generics per GC shape, and every pointer
// type argument (*core.Tagless, *core.Tagged, *history.Path, ...) shares
// the go.shape.*uint8 shape, so those calls still dispatch through the
// generics dictionary. Not even the struct-typed history.PatternProvider's
// methods inline into the kernel (Observe is its own profile frame).
//
// What makes fusion sound: the direction predictor and the
// branch-history registers train purely on the resolved record stream,
// never on prediction outcomes, so runs differing in their target cache,
// BTB or RAS hold bit-identical state in those structures at every
// instruction. The BTB and the RAS train on the resolved stream too, but
// their state depends on their own geometry. A gang therefore shares
//
//   - one block iteration: record fields (pc/target/class byte) are read
//     once per block for the whole gang. Each block's value columns are
//     uint32 or uint64 (trace.Block); the kernel tests that once per
//     block and runs gangBlock, generic over the column word, so both
//     element types compile to direct loads;
//   - one direction predictor: every member must carry the same
//     direction-predictor config. dirpred.Predict is pure, so one
//     evaluation per record serves every member, and training runs once;
//   - per-scheme history registers: members naming the same HistShare key
//     provably construct identical providers, so the register is computed
//     and trained once and its Value is read by every member using that
//     scheme;
//   - one flush interval: at every multiple of it the whole gang resets
//     together, at the position Engine.Reset runs in the streaming loop,
//     so the shared structures stay exact;
//
// and splits the rest by front end. A BTB's state depends only on its
// configuration and the resolved stream, so there is one BTB per distinct
// BTB configuration, probed once per record and trained after everything
// that reads the probe; its members' records on which neither a target
// cache nor a RAS was consulted count once, in the BTB's skeleton
// counters. Under each BTB sit lanes, one per distinct RAS depth: a lane
// owns its RAS, pushed and popped on calls and returns, and counts once
// for all of its members the records whose target the RAS supplied (the
// BTB detected a return). Every sweep target-cache gang runs the paper's
// baseline front end and so has a single BTB and lane; the sweep's btb
// family fuses its geometries as one BTB per point, and the suite's ras
// ablation its stack depths as one lane per point under a single BTB.
//
// Per member there remains only the target cache itself — flat tables
// allocated per member, with the member bookkeeping (history index,
// divergence counters) laid out contiguously in one slice — touched only
// on records whose prediction or update actually consults it: indirect
// jumps and calls, plus the rare record whose stale BTB entry
// misclassifies it as indirect. A member consults its cache only when its
// own BTB detects an indirect jump, the rule Engine.Predict follows.
// Everything else is accumulated once per BTB or lane and added into
// every member's result at the end, so the per-record marginal cost of a
// gang member is zero on the ~95% of branches that never touch a target
// cache.
//
// Equivalence contract: for every member, the returned AccuracyResult is
// struct-identical to the streaming loop's over the same records, budget,
// flush interval and config. TestGangMatchesSolo, TestGangLanesMatchSolo,
// TestKernelMatchesGenericLoop, FuzzGangMatchesSolo and the sweep
// package's differential harness pin this at gang widths 1, 3 and K
// across worker counts.

// targetCache is the compile-time constraint for the kernel's target-cache
// parameter: the hot subset of core.TargetCache.
type targetCache interface {
	Predict(pc, hist uint64) (target uint64, ok bool)
	Update(pc, hist, target uint64)
	Reset()
}

// historySource is the hot subset of history.Provider.
type historySource interface {
	Value(pc uint64) uint64
	Observe(r *trace.Record)
	Reset()
}

// blocksFor unwraps the decoded-batch representation behind a factory: a
// memoized Replay (decoded once, cached), an explicit Blocks, or any
// other BlockSource such as the out-of-core trace.Store.
func blocksFor(factory trace.Factory) (trace.BlockSource, bool) {
	switch f := factory.(type) {
	case *trace.Replay:
		return f, true
	case trace.BlockSource:
		return f, true
	}
	return nil, false
}

// GangPoint is one member of a fused gang: a full simulation config plus
// an optional history-sharing key.
type GangPoint struct {
	Config Config
	// HistShare, when non-empty, identifies the member's history
	// configuration: members with equal keys are guaranteed by the caller
	// to construct identical history providers (same kind, same depth,
	// same path parameters) and share a single register. An empty key
	// gives the member a private provider, which is always safe.
	HistShare string
}

// classCounters are accuracy counters split by branch class, the way
// AccuracyResult reports them, indexed by the slots below.
type classCounters [numSlots]stats.Counter

const (
	slotNone = iota // a non-branch; never recorded
	slotCond
	slotDirect
	slotReturns
	slotIndirect
	slotOverall
	numSlots
)

// classSlot maps a class (the Meta byte's low four bits) to its slot.
var classSlot = [16]uint8{
	trace.ClassCondDirect:   slotCond,
	trace.ClassUncondDirect: slotDirect,
	trace.ClassCall:         slotDirect,
	trace.ClassReturn:       slotReturns,
	trace.ClassIndJump:      slotIndirect,
	trace.ClassIndCall:      slotIndirect,
}

// record counts one prediction for a branch of class cls.
func (c *classCounters) record(cls trace.Class, correct bool) {
	c[classSlot[cls&trace.MetaClassMask]].Record(correct)
	c[slotOverall].Record(correct)
}

// add accumulates o into c.
func (c *classCounters) add(o *classCounters) {
	for i := range c {
		c[i].Add(o[i])
	}
}

// gangMember is the per-member state of a fused run. The slice of these
// is the gang's only per-member allocation besides the target caches
// themselves; counters here record only the records whose outcome
// diverged per member (their prediction consulted the member's target
// cache) — the shared counters live once per BTB and per lane.
type gangMember struct {
	hist int32 // index into the shared provider table
	classCounters
	tcCovered int64
}

// gangBTB is one distinct BTB configuration of a gang and the lanes that
// share it, lanes[lo:hi], whose target-cache members are members[mlo:mhi].
// Its counters are the skeleton, the records on which neither a target
// cache nor a RAS was consulted (their outcome is identical for every
// member of every lane), and the verdict every BTB-only member of the
// lanes shares on the records where the target caches were consulted.
type gangBTB struct {
	btb              *btb.BTB
	lo, hi, mlo, mhi int
	skeleton         classCounters
	// verdict is nil when no lane has a BTB-only member.
	verdict *classCounters
}

// gangLane is one distinct (BTB configuration, RAS depth) pair of a
// gang: its RAS, the counters of the records whose target the RAS
// supplied (their outcome is identical for every member of the lane),
// its target-cache members members[lo:hi] and whether it has BTB-only
// members, which share one result, plus their collectors.
type gangLane struct {
	ras     *btb.RAS
	lo, hi  int
	fromRAS classCounters
	btbOnly bool
	tels    []*telemetry.Collector
}

// laneKey is what the members of one lane share.
type laneKey struct {
	btb btb.Config
	ras int
}

// gang is a fused run's type-independent state: the block stream, the
// shared direction predictor, the BTBs, the lanes and the members'
// bookkeeping.
type gang struct {
	bs            trace.BlockSource
	budget, flush int64
	dir           *dirpred.Predictor
	btbs          []gangBTB
	lanes         []gangLane
	members       []gangMember
	obs           *gangObs // nil when no member carries a collector
}

// RunAccuracyGang is RunAccuracyGangCtx under context.Background, without
// flushes.
func RunAccuracyGang(factory trace.Factory, budget int64, pts []GangPoint) ([]AccuracyResult, bool) {
	return RunAccuracyGangCtx(context.Background(), factory, budget, 0, pts)
}

// RunAccuracyGangCtx simulates every member of pts over a single pass of
// factory's decoded block stream and returns one AccuracyResult per
// member, in order, each struct-identical to what the streaming loop of
// RunAccuracyWithFlushesCtx reports for that member alone over the same
// records. A member's telemetry collector, when set, receives exactly the
// calls that streaming run makes. Every flushInterval instructions the
// whole gang resets, as Engine.Reset does in the streaming loop;
// flushInterval <= 0 never flushes.
//
// Members may differ in BTB configuration and RAS depth: each distinct
// pair is a lane with its own RAS, and lanes with the same BTB
// configuration share one BTB. A member without a target cache (a
// BTB-only config) rides its lane: its result is the BTB's skeleton, the
// lane's RAS counters and one "BTB verdict" counter set the BTB's
// BTB-only members share, however many there are.
//
// The second return is false — and no simulation runs — when pts is
// empty or the gang cannot be fused: the factory exposes no decoded
// BlockSource, a member has a target cache but no history, or the
// members disagree on direction-predictor config. Callers fall back to
// per-point runs.
func RunAccuracyGangCtx(ctx context.Context, factory trace.Factory, budget, flushInterval int64, pts []GangPoint) ([]AccuracyResult, bool) {
	if len(pts) == 0 {
		return nil, false
	}
	bs, ok := blocksFor(factory)
	if !ok {
		return nil, false
	}
	dirCfg := pts[0].Config.Dir
	var (
		btbCfgs []btb.Config // one per BTB, first-seen order
		keys    []laneKey    // one per lane
	)
	for _, pt := range pts {
		cfg := pt.Config
		if cfg.NewTargetCache != nil && cfg.NewHistory == nil {
			return nil, false
		}
		if cfg.Dir != dirCfg {
			return nil, false
		}
		if !slices.Contains(btbCfgs, cfg.BTB) {
			btbCfgs = append(btbCfgs, cfg.BTB)
		}
		if k := (laneKey{btb: cfg.BTB, ras: cfg.RASDepth}); !slices.Contains(keys, k) {
			keys = append(keys, k)
		}
	}
	// The lanes of one BTB are contiguous, in first-seen order.
	slices.SortStableFunc(keys, func(a, b laneKey) int {
		return slices.Index(btbCfgs, a.btb) - slices.Index(btbCfgs, b.btb)
	})
	laneOf := make([]int, len(pts))
	for i, pt := range pts {
		laneOf[i] = slices.Index(keys, laneKey{btb: pt.Config.BTB, ras: pt.Config.RASDepth})
	}

	g := &gang{bs: bs, budget: budget, flush: flushInterval, dir: dirpred.New(dirCfg)}
	var (
		tcs       []core.TargetCache
		providers []history.Provider
		obs       gangObs
		observed  bool
	)
	// Target-cache members are laid out lane by lane, so a lane's
	// members, and a BTB's, are one contiguous run; memberOf maps each
	// point back.
	g.lanes = make([]gangLane, len(keys))
	memberOf := make([]int, len(pts))
	shared := make(map[string]int32, len(pts))
	for li := range g.lanes {
		ln := &g.lanes[li]
		ln.ras = btb.NewRAS(keys[li].ras)
		ln.lo = len(g.members)
		for i, pt := range pts {
			if laneOf[i] != li {
				continue
			}
			tel := pt.Config.Telemetry
			observed = observed || tel != nil
			if pt.Config.NewTargetCache == nil {
				memberOf[i] = -1
				ln.btbOnly = true
				if tel != nil {
					ln.tels = append(ln.tels, tel)
				}
				continue
			}
			memberOf[i] = len(g.members)
			obs.tels = append(obs.tels, tel)
			tcs = append(tcs, pt.Config.NewTargetCache())
			var m gangMember
			if key := pt.HistShare; key != "" {
				if idx, ok := shared[key]; ok {
					m.hist = idx
					g.members = append(g.members, m)
					continue
				}
				shared[key] = int32(len(providers))
			}
			m.hist = int32(len(providers))
			g.members = append(g.members, m)
			providers = append(providers, pt.Config.NewHistory())
		}
		ln.hi = len(g.members)
	}
	for lo := 0; lo < len(keys); {
		bt := gangBTB{btb: btb.New(keys[lo].btb), lo: lo, hi: lo, mlo: g.lanes[lo].lo}
		for ; bt.hi < len(keys) && keys[bt.hi].btb == keys[lo].btb; bt.hi++ {
			if g.lanes[bt.hi].btbOnly && bt.verdict == nil {
				bt.verdict = &classCounters{}
			}
		}
		bt.mhi = g.lanes[bt.hi-1].hi
		g.btbs = append(g.btbs, bt)
		lo = bt.hi
	}

	// Only gangs with a collector carry an observer; the rest (every
	// sweep gang) skip every telemetry call.
	if observed {
		for _, m := range g.members {
			obs.hists = append(obs.hists, m.hist)
		}
		g.obs = &obs
	}
	tcRes, btbRes := dispatchGangTC(ctx, g, tcs, providers)
	out := make([]AccuracyResult, len(pts))
	for i := range pts {
		if mi := memberOf[i]; mi >= 0 {
			out[i] = tcRes[mi]
		} else {
			out[i] = btbRes[laneOf[i]]
		}
	}
	return out, true
}

// dispatchGangTC instantiates the kernel over the members' concrete
// target-cache type when the gang is family-homogeneous. Grid expansion
// emits points family by family, so shards — and the gangs cut from them
// — mix families only at grid boundaries; the rare mixed gang, and a
// cache outside the switch (the chooser, the last-target table), takes
// the interface-typed instantiation of the same kernel. Pointer-typed
// caches share one GC shape, so the per-member Predict/Update calls still
// go through the generics dictionary.
func dispatchGangTC(ctx context.Context, g *gang, tcs []core.TargetCache, providers []history.Provider) ([]AccuracyResult, []AccuracyResult) {
	switch {
	case allOf[*core.Tagless](tcs):
		return dispatchGangHist(ctx, g, cast[*core.Tagless](tcs), providers)
	case allOf[*core.Tagged](tcs):
		return dispatchGangHist(ctx, g, cast[*core.Tagged](tcs), providers)
	case allOf[*core.Cascaded](tcs):
		return dispatchGangHist(ctx, g, cast[*core.Cascaded](tcs), providers)
	case allOf[*core.ITTAGE](tcs):
		return dispatchGangHist(ctx, g, cast[*core.ITTAGE](tcs), providers)
	}
	return dispatchGangHist(ctx, g, tcs, providers)
}

// dispatchGangHist monomorphizes over the providers' concrete type for an
// already-resolved target-cache type. The sweep groups gangs by history
// scheme, so gangs are history-homogeneous in practice; heterogeneous
// gangs take the interface-typed instantiation.
func dispatchGangHist[TC targetCache](ctx context.Context, g *gang, tcs []TC, providers []history.Provider) ([]AccuracyResult, []AccuracyResult) {
	if hs, ok := homogeneous[history.PatternProvider](providers); ok {
		return gangKernel(ctx, g, tcs, hs)
	}
	if hs, ok := homogeneous[*history.Path](providers); ok {
		return gangKernel(ctx, g, tcs, hs)
	}
	return gangKernel(ctx, g, tcs, providers)
}

// homogeneous converts the provider slice to its concrete element type
// when every element has it.
func homogeneous[H historySource](providers []history.Provider) ([]H, bool) {
	hs := make([]H, len(providers))
	for i, p := range providers {
		h, ok := p.(H)
		if !ok {
			return nil, false
		}
		hs[i] = h
	}
	return hs, true
}

// allOf reports whether every target cache has concrete type TC.
func allOf[TC targetCache](tcs []core.TargetCache) bool {
	for _, tc := range tcs {
		if _, ok := tc.(TC); !ok {
			return false
		}
	}
	return true
}

// cast converts the target-cache slice to its concrete element type;
// callers check allOf first.
func cast[TC targetCache](tcs []core.TargetCache) []TC {
	out := make([]TC, len(tcs))
	for i, tc := range tcs {
		out[i] = tc.(TC)
	}
	return out
}

// gangObs carries the members' telemetry collectors. Gangs without any
// collector pass a nil observer and skip every call.
type gangObs struct {
	tels  []*telemetry.Collector // per target-cache member; nil entries unobserved
	hists []int32                // per target-cache member: its history register
}

// memberIndirect reports target-cache member mi's own verdict on an
// indirect-class record whose prediction consulted its cache.
func (o *gangObs) memberIndirect(mi int, insns int64, r *trace.Record, hist, pTarget uint64, correct bool) {
	if tel := o.tels[mi]; tel != nil {
		tel.SetClock(insns)
		tel.Indirect(r.PC, hist, pTarget, true, r.Target, correct)
	}
}

// btbOnlyIndirect reports an indirect-class record to the BTB-only
// members of lanes, which see no history.
func btbOnlyIndirect(lanes []gangLane, insns int64, r *trace.Record, pTarget uint64, hasPrediction, correct bool) {
	for li := range lanes {
		for _, tel := range lanes[li].tels {
			tel.SetClock(insns)
			tel.Indirect(r.PC, 0, pTarget, hasPrediction, r.Target, correct)
		}
	}
}

// sharedIndirect reports an indirect-class record that the target-cache
// members members[lo:hi] and the BTB-only members of lanes predicted
// alike; phVals are the history registers' values.
func (o *gangObs) sharedIndirect(lo, hi int, lanes []gangLane, insns int64, r *trace.Record, phVals []uint64, pTarget uint64, hasPrediction, correct bool) {
	for mi := lo; mi < hi; mi++ {
		if tel := o.tels[mi]; tel != nil {
			tel.SetClock(insns)
			tel.Indirect(r.PC, phVals[o.hists[mi]], pTarget, hasPrediction, r.Target, correct)
		}
	}
	btbOnlyIndirect(lanes, insns, r, pTarget, hasPrediction, correct)
}

// gangKernel is the fused accuracy loop, record for record the streaming
// loop's sequence — same context-poll and flush positions, same
// clean-prefix error contract — with lean materialization and the
// per-branch work split into a shared part (direction prediction, history
// values, direction and history training: run once), a per-BTB skeleton
// (probe, shared outcome, training: run once per distinct BTB), a
// per-lane part (RAS: run only on calls, returns and the records whose
// target the RAS supplies) and a per-member tail (run only when the
// member's BTB detects an indirect jump, so its target cache is
// consulted). It returns the target-cache members' results in order plus,
// per lane, the result every BTB-only member of the lane shares.
func gangKernel[TC targetCache, H historySource](ctx context.Context, g *gang, tcs []TC, hists []H) ([]AccuracyResult, []AccuracyResult) {
	k := &gangRun[TC, H]{gang: g, tcs: tcs, hists: hists, phVals: make([]uint64, len(hists))}
	bs := g.bs
	limit := max(g.budget, 0)
	effEnd := min(limit, bs.CleanLen())
	var insns int64
	for bi := 0; insns < effEnd; bi++ {
		blk, err := bs.BlockAt(bi)
		if err != nil {
			return g.finish(insns, k.branches, err)
		}
		base := int64(bi) * trace.BlockLen
		meta := blk.Meta[:min(int64(len(blk.Meta)), effEnd-base)]
		var done int
		if blk.IsWide() {
			done, err = gangBlock(ctx, k, base, meta, blk.Wide)
		} else {
			done, err = gangBlock(ctx, k, base, meta, blk.Narrow)
		}
		insns = base + int64(done)
		if err != nil {
			return g.finish(insns, k.branches, err)
		}
	}
	var tailErr error
	// The streaming loop surfaces a decode error only when the budget
	// reaches past the cleanly decoded prefix (a Limit that stops earlier
	// never touches the damage). Mirror that exactly.
	if limit > bs.CleanLen() {
		tailErr = bs.TailErr()
	}
	return g.finish(insns, k.branches, tailErr)
}

// gangRun is a fused run's typed state: the gang, the members' target
// caches, the shared history registers and their values at the current
// record, and the branch count so far.
type gangRun[TC targetCache, H historySource] struct {
	*gang
	tcs      []TC
	hists    []H
	phVals   []uint64
	branches int64
}

// gangBlock runs the gang over one block's records meta (the block's Meta
// column cut to the budget) and value columns cols, whose first record is
// the capture's record base. It returns the instruction count the block
// reached: len(meta), or the count at the poll position where ctx was
// found cancelled.
func gangBlock[TC targetCache, H historySource, W trace.Word](ctx context.Context, k *gangRun[TC, H], base int64, meta []uint8, cols trace.Columns[W]) (int, error) {
	flush := k.flush
	dir, btbs, lanes, members, obs := k.dir, k.btbs, k.lanes, k.members, k.obs
	tcs, hists, phVals := k.tcs, k.hists, k.phVals
	branches := k.branches
	pcs := cols.PC[:len(meta)]
	tgts := cols.Target[:len(meta)]
	var r trace.Record
	for i := range meta {
		insns := base + int64(i) + 1
		if insns&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				k.branches = branches
				return i + 1, err
			}
		}
		if flush > 0 && insns%flush == 0 {
			resetGang(dir, btbs, lanes, tcs, hists)
		}
		mb := meta[i]
		cls := trace.Class(mb & trace.MetaClassMask)
		if cls == trace.ClassOther {
			continue
		}
		branches++
		// Lean materialization: no predictor reads the address or the
		// register operands, so they stay zero.
		r.PC = uint64(pcs[i])
		r.Target = uint64(tgts[i])
		r.Class = cls
		r.Op = trace.OpClass(mb >> trace.MetaOpShift & trace.MetaOpMask)
		r.Taken = mb&trace.MetaTaken != 0

		indirectCls := cls == trace.ClassIndJump || cls == trace.ClassIndCall
		// Value is pure and providers are not trained until the resolve
		// phase below, so one read per scheme serves every member — the
		// same value a streaming run would see. Indirect records need it
		// for training; any other record only when some BTB detects an
		// indirect jump.
		phFresh := indirectCls
		if phFresh {
			readHists(hists, phVals, r.PC)
		}
		// The direction prediction is pure too: evaluated at most once
		// per record, by the first BTB that detects a conditional branch.
		var dirTaken, dirFresh bool

		for bti := range btbs {
			bt := &btbs[bti]
			// ---- per-BTB fetch skeleton: probe and direction ----
			entry, bref, hit := bt.btb.Probe(r.PC)
			var pTaken bool
			if hit {
				if entry.Class == trace.ClassCondDirect {
					if !dirFresh {
						dirTaken, dirFresh = dir.Predict(r.PC), true
					}
					pTaken = dirTaken
				} else {
					pTaken = true
				}
			}
			switch {
			case hit && pTaken && (entry.Class == trace.ClassIndJump || entry.Class == trace.ClassIndCall):
				// The prediction consults the target cache, so the
				// outcome can differ per member. This keys on the BTB's
				// *detected* class, exactly like Engine.Predict.
				if !phFresh {
					readHists(hists, phVals, r.PC)
					phFresh = true
				}
				for mi := bt.mlo; mi < bt.mhi; mi++ {
					mem := &members[mi]
					pTarget, pFromTC := entry.Target, false
					if tgt, ok := tcs[mi].Predict(r.PC, phVals[mem.hist]); ok {
						pTarget, pFromTC = tgt, true
					}
					correct := r.Taken && pTarget == r.Target
					mem.record(cls, correct)
					if indirectCls {
						if pFromTC {
							mem.tcCovered++
						}
						if obs != nil {
							obs.memberIndirect(mi, insns, &r, phVals[mem.hist], pTarget, correct)
						}
					}
				}
				if bt.verdict != nil {
					// A BTB-only member predicts the entry's target.
					correct := r.Taken && entry.Target == r.Target
					bt.verdict.record(cls, correct)
					if indirectCls && obs != nil {
						btbOnlyIndirect(lanes[bt.lo:bt.hi], insns, &r, entry.Target, true, correct)
					}
				}
			case hit && pTaken && entry.Class == trace.ClassReturn:
				// The RAS supplies the target: the outcome is identical
				// for every member of a lane.
				for li := bt.lo; li < bt.hi; li++ {
					ln := &lanes[li]
					pTarget, pHasTarget := ln.ras.Peek()
					correct := r.Taken && pHasTarget && pTarget == r.Target
					ln.fromRAS.record(cls, correct)
					if indirectCls && obs != nil {
						obs.sharedIndirect(ln.lo, ln.hi, lanes[li:li+1], insns, &r, phVals, pTarget, pHasTarget, correct)
					}
				}
			default:
				// Neither a target cache nor a RAS consulted: the
				// prediction — and its correctness — is identical for
				// every member of every lane. Count once.
				pHasTarget := hit && pTaken
				var pTarget uint64
				if pHasTarget {
					pTarget = entry.Target
				}
				correct := pTaken == r.Taken && (!r.Taken || (pHasTarget && pTarget == r.Target))
				bt.skeleton.record(cls, correct)
				if indirectCls && obs != nil {
					obs.sharedIndirect(bt.mlo, bt.mhi, lanes[bt.lo:bt.hi], insns, &r, phVals, pTarget, pHasTarget, correct)
				}
			}
			// Every lane of this BTB has read the probe: train its RASes
			// and the BTB itself.
			if cls == trace.ClassCall || cls == trace.ClassIndCall {
				for li := bt.lo; li < bt.hi; li++ {
					lanes[li].ras.Push(r.FallThrough())
				}
			}
			if cls == trace.ClassReturn {
				for li := bt.lo; li < bt.hi; li++ {
					lanes[li].ras.Pop()
				}
			}
			if hit {
				bt.btb.UpdateHit(bref, &r)
			} else {
				bt.btb.Update(&r)
			}
		}

		// ---- resolve: per-member target-cache training, then the
		// shared structures ----
		if indirectCls {
			for mi := range members {
				tcs[mi].Update(r.PC, phVals[members[mi].hist], r.Target)
			}
		}
		if cls == trace.ClassCondDirect {
			dir.Update(r.PC, r.Taken)
		}
		for pi := range hists {
			hists[pi].Observe(&r)
		}
	}
	k.branches = branches
	return len(meta), nil
}

// finish assembles the results: a target-cache member's is its BTB's
// skeleton, its lane's RAS counters and its own divergence counters; a
// BTB-only member's has the BTB's verdict in place of the last. Every
// member reports the instruction and branch counts and the error a
// streaming run stopped at the same record would.
func (g *gang) finish(insns, branches int64, err error) ([]AccuracyResult, []AccuracyResult) {
	assemble := func(tcCovered int64, parts ...*classCounters) AccuracyResult {
		var c classCounters
		for _, p := range parts {
			c.add(p)
		}
		return AccuracyResult{
			Instructions: insns, Branches: branches,
			Conditional: c[slotCond], Direct: c[slotDirect], Returns: c[slotReturns], Indirect: c[slotIndirect], Overall: c[slotOverall],
			TCCovered: tcCovered, Err: err,
		}
	}
	out := make([]AccuracyResult, len(g.members))
	btbRes := make([]AccuracyResult, len(g.lanes))
	for bti := range g.btbs {
		bt := &g.btbs[bti]
		for li := bt.lo; li < bt.hi; li++ {
			ln := &g.lanes[li]
			for mi := ln.lo; mi < ln.hi; mi++ {
				m := &g.members[mi]
				out[mi] = assemble(m.tcCovered, &bt.skeleton, &ln.fromRAS, &m.classCounters)
			}
			if ln.btbOnly {
				btbRes[li] = assemble(0, &bt.skeleton, &ln.fromRAS, bt.verdict)
			}
		}
	}
	return out, btbRes
}

// readHists loads every history register's value for pc into phVals.
func readHists[H historySource](hists []H, phVals []uint64, pc uint64) {
	for pi := range hists {
		phVals[pi] = hists[pi].Value(pc)
	}
}

// resetGang clears every predictor structure of the gang at a flush
// boundary, as Engine.Reset does for a streaming run.
func resetGang[TC targetCache, H historySource](dir *dirpred.Predictor, btbs []gangBTB, lanes []gangLane, tcs []TC, hists []H) {
	dir.Reset()
	for i := range btbs {
		btbs[i].btb.Reset()
	}
	for li := range lanes {
		lanes[li].ras.Reset()
	}
	for i := range tcs {
		tcs[i].Reset()
	}
	for i := range hists {
		hists[i].Reset()
	}
}
