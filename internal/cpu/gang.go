package cpu

// Fused timing gang: one pass over a capture's decoded blocks drives K
// machines that differ only in their target cache and branch history.
// The timing experiments run dozens of target-cache configurations over
// the same capture on the same machine, and before the gang every one of
// them re-ran the data cache, the BTB, the return address stack and the
// direction predictor record for record.
//
// Why fusion is exact: the fast model replays a fixed trace with no wrong
// path, so the data cache sees the same address stream in every run and a
// load's latency does not depend on the predictor. The BTB, RAS and
// direction predictor train only on resolved records, never on
// predictions, so two runs that differ only in their target cache hold
// identical front-end state at every record (the argument that makes the
// accuracy gang in internal/sim exact). The only per-member outcome is the
// verdict of a branch whose prediction consults the target cache, and the
// fetch redirect that verdict causes.
//
// The gang works through the capture one trace.Block at a time, in two
// phases:
//
//   - Phase A (frontEnd), once per block: the latency column (the class
//     latency with the data-cache miss folded in) and the shared
//     prediction and resolve. A branch whose outcome is the same for every
//     member gets its verdict in the shared control column. Only where the
//     BTB detects an indirect jump does each member consult its own target
//     cache, writing its own verdict byte; each member's history observes
//     every branch and its target cache trains on every indirect jump.
//   - Phase B (pipeline), once per member: a lean pipeline (fetch, window,
//     operand readiness, functional units, retire) replays the block from
//     those columns.
//
// Per block, each member's ~140 KB of pipeline state stays cache-hot for
// 4096 records. Telemetry events are buffered per member in phase A and
// emitted in phase B, where the branch's resolve cycle is known, so an
// observed run takes the same path as an unobserved one.
//
// Equivalence contract: every member's Result is struct-identical to the
// streaming reference RunCtx over the same capture, and its telemetry
// events and timeline entries are identical too. The differential tests in
// replay_test.go pin this at gang widths 1, 3 and all members, across
// machine shapes, damaged captures and cancellation.

import (
	"context"
	"sync"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Control bits: one byte per record in the shared column (and in a
// member's verdict column where the outcome is per member).
const (
	vBranch   uint8 = 1 << iota // the record is a branch
	vRedirect                   // mispredicted: fetch resumes after it resolves
	vEndGroup                   // correctly predicted taken: ends the fetch group
	vMember                     // per-member outcome: read the member's verdict
)

// verdict encodes a branch outcome for the pipeline.
func verdict(correct, taken bool) uint8 {
	switch {
	case !correct:
		return vBranch | vRedirect
	case taken:
		return vBranch | vEndGroup
	}
	return vBranch
}

// fuSize is the functional-unit ring's length in cycles.
const fuSize = 8192

// fuSlot is one cycle of the functional-unit ring: entries are tagged with
// their cycle and lazily reset (see fuRing.at).
type fuSlot struct {
	cycle int64
	count int
}

// pipeline is one member's timing state, carried across blocks.
type pipeline struct {
	fetchCycle  int64   // cycle the next instruction is fetched
	fetchedThis int     // instructions fetched in fetchCycle
	lastRetire  int64   // retire cycle of the previous instruction
	retiredThis int     // instructions retired in lastRetire
	window      []int64 // ring: retire cycle per slot
	slot        int     // the next record's window slot: its index mod Window
}

// memberState is a member's bulky state, recycled across runs through
// statePool: a gang allocates ~140 KB per member, and the suite runs
// hundreds of members.
type memberState struct {
	verdict  [trace.BlockLen]uint8 // written before read, never cleared
	regReady [256]int64            // indexed by register; register 0 stays 0
	fu       [fuSize]fuSlot
}

var statePool = sync.Pool{New: func() any { return new(memberState) }}

// opsPool recycles the per-gang uop column, which phase A fully writes
// before phase B reads it.
var opsPool = sync.Pool{New: func() any { return new([trace.BlockLen]uop) }}

// uop is one record as the pipeline sees it, written by phase A.
type uop struct {
	lat             int64 // execution latency, data-cache miss included
	src1, src2, dst uint8
	ctl             uint8 // the shared verdict, or vMember
}

// stamp is one record's pipeline timing, kept for an observed member.
type stamp struct {
	fetch, issue, complete, retire int64
	v                              uint8
}

// pendingEvent is a telemetry event for the block's record i, whose
// resolve cycle phase B supplies.
type pendingEvent struct {
	i                      int
	hist, pTarget          uint64
	hasPrediction, correct bool
}

// gangMember is one machine's private state: its target cache and
// history, its observers, its divergence counters and its pipeline.
type gangMember struct {
	tc       core.TargetCache // nil for the BTB-only baseline
	hist     history.Provider // nil when tc is nil
	tel      *telemetry.Collector
	observer func(TimelineEntry)

	// res holds the mispredictions counted only for this member (its
	// target cache was consulted) and the pipeline's stall counters.
	res    Result
	st     *memberState
	events []pendingEvent
	stamps []stamp // nil unless tel or observer is set
	pipe   pipeline
}

// gang is one fused run: the shared front end and data cache, the
// per-block columns, and the members.
type gang struct {
	cfg     Config
	front   *Machine // lends the shared BTB, RAS and direction predictor
	members []gangMember

	// shared holds the config-independent counters; every member's
	// Result starts from it.
	shared Result

	ops *[trace.BlockLen]uop

	// Specialized data-cache state, replacing cache.Cache[struct{}] on the
	// hot path. The LRU stream is identical to Cache.Touch: one tick per
	// access, hit refreshes lastUse, miss victimizes the first invalid way
	// else the first minimum-lastUse way. lastUse==0 encodes invalid (the
	// tick pre-increments, so live lines always carry a positive stamp).
	dcache    *cache.Cache[struct{}]
	lineShift int
	dways     int
	dtags     []uint64
	dlast     []int64
	dtick     int64
}

// RunReplayCtx simulates up to budget instructions from a capture's
// decoded batches — a memoized Replay, explicit Blocks, or an out-of-core
// Store. It is the width-1 gang. It may be called once per Machine.
func (m *Machine) RunReplayCtx(ctx context.Context, bs trace.BlockSource, budget int64) Result {
	return RunReplayGang(ctx, bs, budget, []*Machine{m})[0]
}

// RunReplayGang simulates every machine over one pass of bs and returns
// one Result per machine, in order, each struct-identical to what the
// machine's own RunReplayCtx would report. The machines must share one
// Config and one front-end geometry (BTB, RAS depth, direction
// predictor); they may differ in target cache, history, telemetry
// collector and observer. It panics when they do not share them, and
// each machine may take part in one run only.
func RunReplayGang(ctx context.Context, bs trace.BlockSource, budget int64, ms []*Machine) []Result {
	if len(ms) == 0 {
		return nil
	}
	g := newGang(ms)
	g.run(ctx, bs, budget)
	opsPool.Put(g.ops)
	out := make([]Result, len(g.members))
	for mi := range g.members {
		mem := &g.members[mi]
		statePool.Put(mem.st)
		r := g.shared
		r.Mispredicts += mem.res.Mispredicts
		r.IndirectMispredicts += mem.res.IndirectMispredicts
		r.CondMispredicts += mem.res.CondMispredicts
		r.ReturnMispredicts += mem.res.ReturnMispredicts
		r.MispredictStallCycles = mem.res.MispredictStallCycles
		r.WindowStallCycles = mem.res.WindowStallCycles
		r.Cycles = mem.pipe.lastRetire + 1
		out[mi] = r
	}
	return out
}

func newGang(ms []*Machine) *gang {
	front := ms[0]
	fe := front.engine
	for _, m := range ms[1:] {
		e := m.engine
		if m.cfg != front.cfg || e.BTB.Config() != fe.BTB.Config() ||
			e.RAS.Cap() != fe.RAS.Cap() || e.Dir.Config() != fe.Dir.Config() {
			panic("cpu: gang machines differ in machine or front-end configuration")
		}
	}
	cfg := front.cfg
	g := &gang{
		cfg:     cfg,
		front:   front,
		members: make([]gangMember, len(ms)),
		dcache:  front.dcache,
		dways:   cfg.DCacheWays,
		ops:     opsPool.Get().(*[trace.BlockLen]uop),
	}
	for mi, m := range ms {
		mem := &g.members[mi]
		*mem = gangMember{
			tc:       m.engine.TC,
			hist:     m.engine.Hist,
			tel:      m.engine.Tel,
			observer: m.observer,
			st:       statePool.Get().(*memberState),
			pipe:     pipeline{window: make([]int64, cfg.Window)},
		}
		mem.st.regReady = [256]int64{}
		mem.st.fu = [fuSize]fuSlot{}
		if mem.tel != nil || mem.observer != nil {
			mem.stamps = make([]stamp, trace.BlockLen)
		}
	}
	for 1<<g.lineShift < cfg.DCacheLine {
		g.lineShift++
	}
	g.dtags = make([]uint64, g.dcache.Entries())
	g.dlast = make([]int64, g.dcache.Entries())
	return g
}

// run drives both phases block by block, under the streaming loop's
// contract: process min(budget, CleanLen) records, stop at a BlockAt
// error or a cancelled ctx, and report TailErr only when the budget
// reaches past the clean prefix.
func (g *gang) run(ctx context.Context, bs trace.BlockSource, budget int64) {
	limit := max(budget, 0)
	effEnd := min(limit, bs.CleanLen())
	var idx int64
	for bi := 0; idx < effEnd; bi++ {
		blk, err := bs.BlockAt(bi)
		if err != nil {
			g.shared.Err = err
			break
		}
		n := len(blk.Meta)
		if rem := effEnd - idx; int64(n) > rem {
			n = int(rem)
		}
		// The value columns are uint32 or uint64 per block; each phase
		// that reads them is generic over the word.
		var done int
		if blk.IsWide() {
			done, err = frontEnd(ctx, g, blk, blk.Wide, idx, n)
		} else {
			done, err = frontEnd(ctx, g, blk, blk.Narrow, idx, n)
		}
		for mi := range g.members {
			mem := &g.members[mi]
			g.pipeline(mem, done)
			if mem.stamps == nil {
				continue
			}
			if blk.IsWide() {
				observe(mem, blk, blk.Wide, done)
			} else {
				observe(mem, blk, blk.Narrow, done)
			}
		}
		idx += int64(done)
		if err != nil {
			g.shared.Err = err
			break
		}
	}
	g.shared.Instructions = idx
	if g.shared.Err == nil && limit > bs.CleanLen() {
		g.shared.Err = bs.TailErr()
	}
}

// frontEnd is phase A over the block's first n records, whose first
// record is the capture's record base, reading the block's value columns
// cols. It returns the number of records processed: n, or fewer with
// ctx's error when ctx was cancelled at one of the streaming loop's poll
// positions.
func frontEnd[W trace.Word](ctx context.Context, g *gang, blk *trace.Block, cols trace.Columns[W], base int64, n int) (int, error) {
	cfg := &g.cfg
	e := g.front.engine
	btbT, ras, dir := e.BTB, e.RAS, e.Dir
	res := &g.shared
	members := g.members
	for mi := range members {
		members[mi].events = members[mi].events[:0]
	}
	dcache, lineShift, dways := g.dcache, g.lineShift, g.dways
	dtags, dlast := g.dtags, g.dlast
	// Reslice every column to the iteration length once: the i < n bound
	// then proves each index in range.
	meta := blk.Meta[:n]
	pcs := cols.PC[:n]
	tgts := cols.Target[:n]
	addrs := cols.Addr[:n]
	dsts := blk.Dst[:n]
	src1s := blk.Src1[:n]
	src2s := blk.Src2[:n]
	ops := g.ops[:n]
	var r trace.Record
	for i := 0; i < n; i++ {
		if (base+int64(i))&ctxCheckMask == ctxCheckMask {
			if err := ctx.Err(); err != nil {
				return i, err
			}
		}
		mb := meta[i]
		op := trace.OpClass(mb >> trace.MetaOpShift & trace.MetaOpMask)

		// Latency, with the data-cache access folded in.
		l := cfg.Latencies[op]
		if op == trace.OpLoad || op == trace.OpStore {
			res.DCacheAccesses++
			set, tag := dcache.IndexOf(uint64(addrs[i]) >> lineShift)
			g.dtick++
			lo := set * dways
			hit := false
			vic := lo
			for w := lo; w < lo+dways; w++ {
				if dlast[w] != 0 && dtags[w] == tag {
					dlast[w] = g.dtick
					hit = true
					break
				}
				if dlast[w] < dlast[vic] {
					vic = w
				}
			}
			if !hit {
				res.DCacheMisses++
				dtags[vic] = tag
				dlast[vic] = g.dtick
				if op == trace.OpLoad {
					l += cfg.MemLatency
				}
			}
		}
		u := &ops[i]
		*u = uop{lat: l, src1: src1s[i], src2: src2s[i], dst: dsts[i]}

		cls := trace.Class(mb & trace.MetaClassMask)
		if cls == trace.ClassOther {
			continue
		}
		res.Branches++
		// Lean materialization: only the fields the predictors read (the
		// register operands stay zero; no consumer looks at them).
		r.PC = uint64(pcs[i])
		r.Target = uint64(tgts[i])
		r.Addr = uint64(addrs[i])
		r.Class = cls
		r.Op = op
		r.Taken = mb&trace.MetaTaken != 0
		indirect := cls.IsTargetCachePredicted()
		if indirect {
			res.IndirectCount++
		}

		// ---- fetch: the shared BTB probe and direction ----
		entry, bref, hit := btbT.Probe(r.PC)
		var pTaken bool
		if hit {
			if entry.Class == trace.ClassCondDirect {
				pTaken = dir.Predict(r.PC)
			} else {
				pTaken = true
			}
		}
		// perMember: the BTB detected an indirect jump, so the target
		// cache supplies the target and the outcome can differ per
		// member. This keys on the BTB's detected class, like Engine.Predict.
		perMember := hit && pTaken && entry.Class.IsTargetCachePredicted()
		var pTarget uint64
		var pHasTarget, correct bool
		if perMember {
			u.ctl = vMember
		} else {
			if hit && pTaken {
				if entry.Class == trace.ClassReturn {
					pTarget, pHasTarget = ras.Peek()
				} else {
					pTarget, pHasTarget = entry.Target, true
				}
			}
			correct = pTaken == r.Taken && (!r.Taken || (pHasTarget && pTarget == r.Target))
			u.ctl = verdict(correct, r.Taken)
			if !correct {
				res.mispredict(cls)
			}
		}

		// ---- per member: target cache and history ----
		for mi := range members {
			mem := &members[mi]
			if mem.hist == nil && mem.tel == nil && !perMember {
				continue // BTB-only, unobserved: nothing differs
			}
			var ph uint64
			if mem.hist != nil && (perMember || indirect) {
				ph = mem.hist.Value(r.PC)
			}
			if perMember {
				// A detected indirect jump is predicted taken; a target
				// cache miss falls back to the BTB's target.
				pTarget, pHasTarget = entry.Target, true
				if mem.tc != nil {
					if tgt, ok := mem.tc.Predict(r.PC, ph); ok {
						pTarget = tgt
					}
				}
				correct = r.Taken && pTarget == r.Target
				mem.st.verdict[i] = verdict(correct, r.Taken)
				if !correct {
					mem.res.mispredict(cls)
				}
			}
			if indirect {
				if mem.tel != nil {
					mem.events = append(mem.events, pendingEvent{
						i: i, hist: ph, pTarget: pTarget, hasPrediction: pTaken && pHasTarget, correct: correct,
					})
				}
				if mem.tc != nil {
					mem.tc.Update(r.PC, ph, r.Target)
				}
			}
			if mem.hist != nil {
				mem.hist.Observe(&r)
			}
		}

		// ---- resolve: the shared structures ----
		if cls.IsCall() {
			ras.Push(r.FallThrough())
		}
		if cls == trace.ClassReturn {
			ras.Pop()
		}
		if cls == trace.ClassCondDirect {
			dir.Update(r.PC, r.Taken)
		}
		if hit {
			btbT.UpdateHit(bref, &r)
		} else {
			btbT.Update(&r)
		}
	}
	return n, nil
}

// mispredict counts one misprediction of a branch of class cls.
func (r *Result) mispredict(cls trace.Class) {
	r.Mispredicts++
	switch cls {
	case trace.ClassIndJump, trace.ClassIndCall:
		r.IndirectMispredicts++
	case trace.ClassCondDirect:
		r.CondMispredicts++
	case trace.ClassReturn:
		r.ReturnMispredicts++
	}
}

// pipeline is phase B: one member's lean pipeline over the block's first n
// records, fed by phase A's columns. The scheduling model is line for
// line the one in RunCtx.
func (g *gang) pipeline(mem *gangMember, n int) {
	p := &mem.pipe
	width := g.cfg.Width
	depth := int64(g.cfg.FrontEndDepth)
	fetchCycle, fetchedThis := p.fetchCycle, p.fetchedThis
	lastRetire, retiredThis := p.lastRetire, p.retiredThis
	regReady := &mem.st.regReady
	fu := &mem.st.fu
	window := p.window
	slot := p.slot
	stamps := mem.stamps
	ops := g.ops[:n]
	own := mem.st.verdict[:n]
	for i := range ops {
		u := &ops[i]

		// Fetch: width and window constraints.
		if fetchedThis >= width {
			fetchCycle++
			fetchedThis = 0
		}
		if oldest := window[slot]; oldest > fetchCycle {
			// The slot's previous occupant retires at `oldest`; we can
			// occupy it the following cycle.
			mem.res.WindowStallCycles += oldest + 1 - fetchCycle
			fetchCycle = oldest + 1
			fetchedThis = 0
		}
		fetched := fetchCycle
		fetchedThis++

		// Issue: operands, then a free functional unit. Register 0 is
		// never written, so its ready cycle stays 0 and an absent operand
		// never delays issue.
		issue := fetched + depth
		if r := regReady[u.src1]; r > issue {
			issue = r
		}
		if r := regReady[u.src2]; r > issue {
			issue = r
		}
		f := &fu[issue&(fuSize-1)]
		used := f.count
		if f.cycle != issue {
			used = 0
		}
		for used >= width {
			issue++
			f = &fu[issue&(fuSize-1)]
			used = f.count
			if f.cycle != issue {
				used = 0
			}
		}
		f.cycle, f.count = issue, used+1

		// Execute.
		complete := issue + u.lat
		regReady[u.dst] = complete
		regReady[0] = 0

		// Branch outcome and checkpoint repair.
		v := u.ctl
		if mv := own[i]; v&vMember != 0 {
			v = mv
		}
		if v&vRedirect != 0 {
			// Correct-path fetch resumes the cycle after the branch
			// resolves.
			if complete+1 > fetchCycle {
				mem.res.MispredictStallCycles += complete + 1 - fetchCycle
				fetchCycle = complete + 1
				fetchedThis = 0
			}
		} else if v&vEndGroup != 0 {
			// A predicted-taken branch ends the fetch group.
			fetchedThis = width
		}

		// Retire: in order, Width per cycle.
		retire := complete
		if lastRetire > retire {
			retire = lastRetire
		}
		retiredThis++
		if retire != lastRetire {
			retiredThis = 1
		}
		if retiredThis > width {
			retire++
			retiredThis = 1
		}
		lastRetire = retire
		window[slot] = retire
		if slot++; slot == len(window) {
			slot = 0
		}

		if stamps != nil {
			stamps[i] = stamp{fetched, issue, complete, retire, v}
		}
	}
	p.fetchCycle, p.fetchedThis = fetchCycle, fetchedThis
	p.lastRetire, p.retiredThis = lastRetire, retiredThis
	p.slot = slot
}

// observe replays an observed member's block, whose value columns are
// cols, to its telemetry collector and timeline observer, in record
// order, from the pipeline's stamps: telemetry events carry the branch's
// resolve cycle.
func observe[W trace.Word](mem *gangMember, blk *trace.Block, cols trace.Columns[W], n int) {
	events := mem.events
	for i, st := range mem.stamps[:n] {
		if mem.tel != nil && st.v&vBranch != 0 {
			mem.tel.SetClock(st.complete)
			if len(events) > 0 && events[0].i == i {
				ev := &events[0]
				mem.tel.Indirect(uint64(cols.PC[i]), ev.hist, ev.pTarget, ev.hasPrediction, uint64(cols.Target[i]), ev.correct)
				events = events[1:]
			}
		}
		if mem.observer != nil {
			var r trace.Record
			blk.Record(i, &r)
			mem.observer(TimelineEntry{
				Record:     r,
				Fetch:      st.fetch,
				Issue:      st.issue,
				Complete:   st.complete,
				Retire:     st.retire,
				Mispredict: st.v&vRedirect != 0,
			})
		}
	}
}
