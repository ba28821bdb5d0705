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
// probe per branch per lane) and is instantiated per (target cache,
// history) type pair. That instantiation does not devirtualize the
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
//     once per block for the whole gang;
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
// and splits the rest into lanes, one per distinct (BTB configuration,
// RAS depth) pair, in first-seen member order. A lane owns its BTB and
// RAS, probed and trained once per record for all of the lane's members,
// and the lane's skeleton counters. Every sweep target-cache gang runs
// the paper's baseline front end and so has a single lane; the sweep's
// btb family fuses its geometries and the suite's ras ablation its stack
// depths as one lane per point.
//
// Per member there remains only the target cache itself — flat tables
// allocated per member, with the member bookkeeping (history index,
// divergence counters) laid out contiguously in one slice — touched only
// on records whose prediction or update actually consults it: indirect
// jumps and calls, plus the rare record whose stale BTB entry
// misclassifies it as indirect. A member consults its cache only when its
// own lane's BTB detects an indirect jump, the rule Engine.Predict
// follows. Everything else is accumulated once per lane in the skeleton
// counters and added into every lane member's result at the end, so the
// per-record marginal cost of a gang member is zero on the ~95% of
// branches that never touch a target cache.
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

// gangMember is the per-member state of a fused run. The slice of these
// is the gang's only per-member allocation besides the target caches
// themselves; counters here record only the records whose outcome
// diverged per member (their prediction consulted the member's target
// cache) — the shared skeleton counters live once per lane.
type gangMember struct {
	hist int32 // index into the shared provider table

	cond, direct, returns, indirect, overall stats.Counter
	tcCovered                                int64
}

// gangLane is one distinct (BTB configuration, RAS depth) pair of a
// gang: its BTB and RAS, the skeleton counters of the records on which no
// target cache of the lane was consulted (their outcome is identical for
// every member of the lane), and its members — target-cache members
// members[lo:hi] and the BTB-only members, which share one verdict.
type gangLane struct {
	btb    *btb.BTB
	ras    *btb.RAS
	lo, hi int

	cond, direct, returns, indirect, overall stats.Counter
	// verdict is nil when the lane has no BTB-only member.
	verdict *btbVerdict
}

// laneKey is what the members of one lane share.
type laneKey struct {
	btb btb.Config
	ras int
}

// gang is a fused run's type-independent state: the block stream, the
// shared direction predictor, the lanes and the members' bookkeeping.
type gang struct {
	bs            trace.BlockSource
	budget, flush int64
	dir           *dirpred.Predictor
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
// pair is a lane with its own BTB and RAS. A member without a target
// cache (a BTB-only config) rides its lane's BTB: its result is the
// lane's skeleton plus one "BTB verdict" counter set the lane's BTB-only
// members share, however many there are.
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
	var keys []laneKey // one per lane, first-seen order
	laneOf := make([]int, len(pts))
	for i, pt := range pts {
		cfg := pt.Config
		if cfg.NewTargetCache != nil && cfg.NewHistory == nil {
			return nil, false
		}
		if cfg.Dir != dirCfg {
			return nil, false
		}
		k := laneKey{btb: cfg.BTB, ras: cfg.RASDepth}
		li := slices.Index(keys, k)
		if li < 0 {
			li, keys = len(keys), append(keys, k)
		}
		laneOf[i] = li
	}

	g := &gang{bs: bs, budget: budget, flush: flushInterval, dir: dirpred.New(dirCfg)}
	var (
		tcs       []core.TargetCache
		providers []history.Provider
		obs       gangObs
		observed  bool
	)
	// Target-cache members are laid out lane by lane, so a lane's
	// members are one contiguous run; memberOf maps each point back.
	g.lanes = make([]gangLane, len(keys))
	memberOf := make([]int, len(pts))
	shared := make(map[string]int32, len(pts))
	for li := range g.lanes {
		ln := &g.lanes[li]
		ln.btb, ln.ras = btb.New(keys[li].btb), btb.NewRAS(keys[li].ras)
		ln.lo = len(g.members)
		for i, pt := range pts {
			if laneOf[i] != li {
				continue
			}
			tel := pt.Config.Telemetry
			observed = observed || tel != nil
			if pt.Config.NewTargetCache == nil {
				memberOf[i] = -1
				if ln.verdict == nil {
					ln.verdict = &btbVerdict{}
				}
				if tel != nil {
					ln.verdict.tels = append(ln.verdict.tels, tel)
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

// btbVerdict is the outcome every BTB-only member of a lane shares on the
// records where the lane's target-cache members diverge.
type btbVerdict struct {
	cond, direct, returns, indirect, overall stats.Counter
	// tels are the BTB-only members' collectors.
	tels []*telemetry.Collector
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

// diverged reports a record whose prediction consulted the lane's target
// caches; a BTB-only member predicts the BTB entry's target there.
func (v *btbVerdict) diverged(insns int64, r *trace.Record, entryTarget uint64) {
	// The kernel reports only predicted-taken records here.
	correct := r.Taken && entryTarget == r.Target
	switch r.Class {
	case trace.ClassCondDirect:
		v.cond.Record(correct)
	case trace.ClassUncondDirect, trace.ClassCall:
		v.direct.Record(correct)
	case trace.ClassReturn:
		v.returns.Record(correct)
	case trace.ClassIndJump, trace.ClassIndCall:
		v.indirect.Record(correct)
		for _, tel := range v.tels {
			tel.SetClock(insns)
			tel.Indirect(r.PC, 0, entryTarget, true, r.Target, correct)
		}
	}
	v.overall.Record(correct)
}

// sharedIndirect reports an indirect-class record every member of lane ln
// predicted alike; phVals are the history registers' values.
func (o *gangObs) sharedIndirect(ln *gangLane, insns int64, r *trace.Record, phVals []uint64, pTarget uint64, hasPrediction, correct bool) {
	for mi := ln.lo; mi < ln.hi; mi++ {
		if tel := o.tels[mi]; tel != nil {
			tel.SetClock(insns)
			tel.Indirect(r.PC, phVals[o.hists[mi]], pTarget, hasPrediction, r.Target, correct)
		}
	}
	if ln.verdict != nil {
		// BTB-only members see no history.
		for _, tel := range ln.verdict.tels {
			tel.SetClock(insns)
			tel.Indirect(r.PC, 0, pTarget, hasPrediction, r.Target, correct)
		}
	}
}

// gangKernel is the fused accuracy loop, record for record the streaming
// loop's sequence — same context-poll and flush positions, same
// clean-prefix error contract — with lean materialization and the
// per-branch work split into a shared part (direction prediction, history
// values, direction and history training: run once), a per-lane skeleton
// (BTB probe, RAS, shared outcome, BTB and RAS training: run once per
// lane) and a per-member tail (run only when the member's lane consults
// its target cache). It returns the target-cache members' results in
// order plus, per lane, the result every BTB-only member of the lane
// shares.
func gangKernel[TC targetCache, H historySource](ctx context.Context, g *gang, tcs []TC, hists []H) ([]AccuracyResult, []AccuracyResult) {
	bs, budget, flush := g.bs, g.budget, g.flush
	dir, lanes, members, obs := g.dir, g.lanes, g.members, g.obs
	var branches int64
	phVals := make([]uint64, len(hists))

	limit := budget
	if limit < 0 {
		limit = 0
	}
	effEnd := limit
	if clean := bs.CleanLen(); clean < effEnd {
		effEnd = clean
	}
	var insns int64
	var r trace.Record

	// finish assembles the per-member results: the lane's skeleton plus
	// each member's divergence counters, every member reporting the same
	// instruction count and error a streaming run stopped at this record
	// would.
	finish := func(err error) ([]AccuracyResult, []AccuracyResult) {
		assemble := func(ln *gangLane, cond, direct, returns, indirect, overall stats.Counter, tcCovered int64) AccuracyResult {
			mr := AccuracyResult{
				Instructions: insns, Branches: branches,
				Conditional: ln.cond, Direct: ln.direct, Returns: ln.returns, Indirect: ln.indirect, Overall: ln.overall,
				TCCovered: tcCovered, Err: err,
			}
			mr.Conditional.Add(cond)
			mr.Direct.Add(direct)
			mr.Returns.Add(returns)
			mr.Indirect.Add(indirect)
			mr.Overall.Add(overall)
			return mr
		}
		out := make([]AccuracyResult, len(members))
		btbRes := make([]AccuracyResult, len(lanes))
		for li := range lanes {
			ln := &lanes[li]
			for mi := ln.lo; mi < ln.hi; mi++ {
				m := &members[mi]
				out[mi] = assemble(ln, m.cond, m.direct, m.returns, m.indirect, m.overall, m.tcCovered)
			}
			if v := ln.verdict; v != nil {
				btbRes[li] = assemble(ln, v.cond, v.direct, v.returns, v.indirect, v.overall, 0)
			}
		}
		return out, btbRes
	}

	for bi := 0; insns < effEnd; bi++ {
		blk, err := bs.BlockAt(bi)
		if err != nil {
			return finish(err)
		}
		base := int64(bi) * trace.BlockLen
		meta := blk.Meta
		m := len(meta)
		if rem := effEnd - base; int64(m) > rem {
			m = int(rem)
		}
		meta = meta[:m]
		pcs := blk.PC[:m]
		tgts := blk.Target[:m]
		addrs := blk.Addr[:m]
		for i := 0; i < m; i++ {
			insns = base + int64(i) + 1
			if insns&ctxCheckMask == 0 {
				if err := ctx.Err(); err != nil {
					return finish(err)
				}
			}
			if flush > 0 && insns%flush == 0 {
				resetGang(dir, lanes, tcs, hists)
			}
			mb := meta[i]
			cls := trace.Class(mb & trace.MetaClassMask)
			if cls == trace.ClassOther {
				continue
			}
			branches++
			r.PC = pcs[i]
			r.Target = tgts[i]
			r.Addr = addrs[i]
			r.Class = cls
			r.Op = trace.OpClass(mb >> trace.MetaOpShift & trace.MetaOpMask)
			r.Taken = mb&trace.MetaTaken != 0

			indirectCls := cls == trace.ClassIndJump || cls == trace.ClassIndCall
			// Value is pure and providers are not trained until the
			// resolve phase below, so one read per scheme serves every
			// member of every lane — the same value a streaming run would
			// see. Indirect records need it for training; any other record
			// only when some lane consults its target caches.
			phFresh := indirectCls
			if phFresh {
				readHists(hists, phVals, r.PC)
			}
			// The direction prediction is pure too: evaluated at most
			// once per record, by the first lane whose BTB detects a
			// conditional branch.
			var dirTaken, dirFresh bool

			for li := range lanes {
				ln := &lanes[li]
				// ---- per-lane fetch skeleton: BTB probe and direction ----
				entry, bref, hit := ln.btb.Probe(r.PC)
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
				// perMember: the prediction consults the target cache, so
				// the outcome can differ per member. This keys on the
				// lane's BTB's *detected* class, exactly like
				// Engine.Predict.
				if hit && pTaken && (entry.Class == trace.ClassIndJump || entry.Class == trace.ClassIndCall) {
					if !phFresh {
						readHists(hists, phVals, r.PC)
						phFresh = true
					}
					for mi := ln.lo; mi < ln.hi; mi++ {
						mem := &members[mi]
						pTarget, pFromTC := entry.Target, false
						if tgt, ok := tcs[mi].Predict(r.PC, phVals[mem.hist]); ok {
							pTarget, pFromTC = tgt, true
						}
						correct := pTaken == r.Taken && (!r.Taken || pTarget == r.Target)
						switch cls {
						case trace.ClassCondDirect:
							mem.cond.Record(correct)
						case trace.ClassUncondDirect, trace.ClassCall:
							mem.direct.Record(correct)
						case trace.ClassReturn:
							mem.returns.Record(correct)
						case trace.ClassIndJump, trace.ClassIndCall:
							mem.indirect.Record(correct)
							if pFromTC {
								mem.tcCovered++
							}
							if obs != nil {
								obs.memberIndirect(mi, insns, &r, phVals[mem.hist], pTarget, correct)
							}
						}
						mem.overall.Record(correct)
					}
					if ln.verdict != nil {
						ln.verdict.diverged(insns, &r, entry.Target)
					}
				} else {
					// No target cache consulted: the prediction — and its
					// correctness — is identical for every member of the
					// lane. Count once.
					var pTarget uint64
					var pHasTarget bool
					if hit && pTaken {
						switch entry.Class {
						case trace.ClassReturn:
							if addr, ok := ln.ras.Peek(); ok {
								pTarget, pHasTarget = addr, true
							}
						default:
							pTarget, pHasTarget = entry.Target, true
						}
					}
					correct := pTaken == r.Taken && (!r.Taken || (pHasTarget && pTarget == r.Target))
					switch cls {
					case trace.ClassCondDirect:
						ln.cond.Record(correct)
					case trace.ClassUncondDirect, trace.ClassCall:
						ln.direct.Record(correct)
					case trace.ClassReturn:
						ln.returns.Record(correct)
					case trace.ClassIndJump, trace.ClassIndCall:
						ln.indirect.Record(correct)
						if obs != nil {
							obs.sharedIndirect(ln, insns, &r, phVals, pTarget, pTaken && pHasTarget, correct)
						}
					}
					ln.overall.Record(correct)
				}
				// Only this lane reads its BTB and RAS, so both train
				// right away.
				if cls == trace.ClassCall || cls == trace.ClassIndCall {
					ln.ras.Push(r.FallThrough())
				}
				if cls == trace.ClassReturn {
					ln.ras.Pop()
				}
				if hit {
					ln.btb.UpdateHit(bref, &r)
				} else {
					ln.btb.Update(&r)
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
	}
	var tailErr error
	// The streaming loop surfaces a decode error only when the budget
	// reaches past the cleanly decoded prefix (a Limit that stops earlier
	// never touches the damage). Mirror that exactly.
	if limit > bs.CleanLen() {
		tailErr = bs.TailErr()
	}
	return finish(tailErr)
}

// readHists loads every history register's value for pc into phVals.
func readHists[H historySource](hists []H, phVals []uint64, pc uint64) {
	for pi := range hists {
		phVals[pi] = hists[pi].Value(pc)
	}
}

// resetGang clears every predictor structure of the gang at a flush
// boundary, as Engine.Reset does for a streaming run.
func resetGang[TC targetCache, H historySource](dir *dirpred.Predictor, lanes []gangLane, tcs []TC, hists []H) {
	dir.Reset()
	for li := range lanes {
		lanes[li].btb.Reset()
		lanes[li].ras.Reset()
	}
	for i := range tcs {
		tcs[i].Reset()
	}
	for i := range hists {
		hists[i].Reset()
	}
}
