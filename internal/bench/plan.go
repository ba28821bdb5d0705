package bench

import (
	"fmt"
	"sort"

	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// The cell planner turns an experiment's queue into pool items. Closure
// cells are items of their own. Simulation cells resolve to members —
// one per distinct request — and members that share a gang group (model,
// workload, and what the model's gang cannot split into lanes) run as
// fused passes: one
// sim.RunAccuracyGangCtx or cpu.RunReplayGang pass per gang, which
// reports for every member exactly what a solo run would. With a suite
// memo, requests an earlier cell already simulated are hits: they join no
// gang, and their cells fill from the stored result.
//
// Width rule: a group of K members is cut into ceil(K/maxGangWidth)
// near-equal gangs; then the largest gangs are halved until the
// experiment has at least min(workers, cells) items, so no worker idles
// while a wide gang could be split. Width-1 gangs take the solo path.
// The event model never fuses.
//
// Ordering rule: a group's dependency members (the BTB-only timing
// baseline that reduction cells divide by) come first, so they land in
// the group's first gang. Pool items start in index order and an item
// waits only on members of earlier items, after finishing its own, so
// the plan cannot deadlock at any worker count.

// maxGangWidth caps a gang: 16 members' predictor and pipeline state
// still fits a worker's share of cache. It is a variable so tests can
// force every member onto the solo path.
var maxGangWidth = 16

// member is one distinct request of a cell group.
type member struct {
	req request
	key memoKey
	// owner is the cell whose telemetry key the run's collector merges
	// under; nil for a request only depended on.
	owner *groupCell
	// needed marks a dependency: it runs even when its owner failed.
	needed bool
	// entry is the memo claim the run settles; nil without a memo.
	entry *memoEntry

	done  chan struct{} // closed once res or fault is final
	res   simResult
	fault any // recovered panic of the member's solo run
}

// failure is the member's error, if its run failed.
func (m *member) failure() error {
	if m.fault != nil {
		err, _ := recoveredErr(m.fault)
		return err
	}
	return m.res.err()
}

// planItem is one pool item: a closure cell, or a gang of members with
// the simulation cells whose primary request is among them (a gang with
// no members finishes memo-hit cells).
type planItem struct {
	fn      *groupCell
	members []*member
	cells   []*groupCell
}

// groupPlan collects one gang group while planning.
type groupPlan struct {
	sims  []*member   // members to simulate
	gangs []*planItem // cut from sims
	hits  *planItem   // cells whose request was a memo hit
}

// plan resolves the queue's simulation cells to members and cuts the
// queue into pool items, each group's items placed where its first cell
// was enqueued.
func (g *cellGroup) plan(cells []groupCell) []*planItem {
	memo := g.p.memo()
	groups := make(map[gangGroup]*groupPlan)
	byKey := make(map[memoKey]*member)
	var order []any // *groupCell or *groupPlan, in first-enqueue order
	groupOf := func(req request) *groupPlan {
		gk := req.group()
		gp, ok := groups[gk]
		if !ok {
			gp = &groupPlan{}
			groups[gk] = gp
			order = append(order, gp)
		}
		return gp
	}
	// resolve returns req's member; repeats collapse into one. The
	// member's collector merges under its first owning cell (no
	// experiment owns one request twice).
	resolve := func(req request, owner *groupCell) *member {
		k := req.key(g.p)
		if m, ok := byKey[k]; ok {
			if m.owner == nil {
				m.owner = owner
			}
			return m
		}
		gp := groupOf(req)
		m := &member{req: req, key: k, owner: owner, done: make(chan struct{})}
		byKey[k] = m
		if memo != nil {
			e, own := memo.acquire(k)
			if !own {
				m.res = e.res
				close(m.done)
				return m
			}
			m.entry = e
		}
		gp.sims = append(gp.sims, m)
		return m
	}
	for i := range cells {
		c := &cells[i]
		sc := c.sim
		if sc == nil {
			order = append(order, c)
			continue
		}
		groupOf(sc.req)
		if sc.base != nil {
			sc.dep = resolve(*sc.base, nil)
			sc.dep.needed = true
		}
		sc.m = resolve(sc.req, c)
	}

	// Cut every group into ceil(K/16) near-equal gangs (width 1 on the
	// event model).
	items, closures, sims := 0, 0, 0
	for _, o := range order {
		gp, ok := o.(*groupPlan)
		if !ok {
			closures++
			items++
			continue
		}
		sort.SliceStable(gp.sims, func(i, j int) bool { return gp.sims[i].needed && !gp.sims[j].needed })
		k := len(gp.sims)
		sims += k
		width := maxGangWidth
		if k > 0 && gp.sims[0].req.event {
			width = 1
		}
		n := (k + width - 1) / width
		for j := 0; j < n; j++ {
			gp.gangs = append(gp.gangs, &planItem{members: gp.sims[j*k/n : (j+1)*k/n]})
		}
		items += n
	}
	// Halve the widest gangs until every worker has an item.
	for target := min(g.workers, closures+sims); items < target; items++ {
		var widest *groupPlan
		at := -1
		for _, o := range order {
			if gp, ok := o.(*groupPlan); ok {
				for j, it := range gp.gangs {
					if widest == nil || len(it.members) > len(widest.gangs[at].members) {
						widest, at = gp, j
					}
				}
			}
		}
		if widest == nil || len(widest.gangs[at].members) < 2 {
			break
		}
		ms := widest.gangs[at].members
		h := (len(ms) + 1) / 2
		widest.gangs[at].members = ms[:h]
		widest.gangs = append(widest.gangs[:at+1], append([]*planItem{{members: ms[h:]}}, widest.gangs[at+1:]...)...)
	}

	// Attach each simulation cell to the item running its request.
	itemOf := make(map[*member]*planItem)
	for _, o := range order {
		if gp, ok := o.(*groupPlan); ok {
			for _, it := range gp.gangs {
				for _, m := range it.members {
					itemOf[m] = it
				}
			}
		}
	}
	for i := range cells {
		c := &cells[i]
		if c.sim == nil {
			continue
		}
		it := itemOf[c.sim.m]
		if it == nil {
			gp := groups[c.sim.req.group()]
			if gp.hits == nil {
				gp.hits = &planItem{}
			}
			it = gp.hits
		}
		it.cells = append(it.cells, c)
	}

	var out []*planItem
	for _, o := range order {
		switch o := o.(type) {
		case *groupCell:
			out = append(out, &planItem{fn: o})
		case *groupPlan:
			out = append(out, o.gangs...)
			if o.hits != nil {
				out = append(out, o.hits)
			}
		}
	}
	return out
}

// execItem runs one gang item. Each cell keeps a cell's contract: its own
// prologue (cancellation, test hook), telemetry collector, instruction
// accounting and CellError. A member whose every owning cell failed its
// prologue does not run, unless another cell depends on it.
func (g *cellGroup) execItem(it *planItem) {
	var live []*groupCell
	liveOwner := make(map[*member]bool)
	for _, c := range it.cells {
		if g.guard(c, func() { g.enter(c) }) {
			live = append(live, c)
			liveOwner[c.sim.m] = true
		}
	}
	var run []*member
	for _, m := range it.members {
		if m.needed || liveOwner[m] {
			run = append(run, m)
		} else {
			g.skip(m)
		}
	}
	g.simulate(run)
	for _, c := range live {
		g.guard(c, c.sim.finish)
	}
}

// finish fills the cell's slot from its settled members.
func (sc *simCell) finish() {
	var base *simResult
	if d := sc.dep; d != nil {
		<-d.done
		if err := d.failure(); err != nil {
			abortCell(fmt.Errorf("BTB baseline for %s: %w", sc.req.w.Name, err))
		}
		base = &d.res
	}
	m := sc.m
	<-m.done
	if m.fault != nil {
		panic(m.fault)
	}
	if err := m.res.err(); err != nil {
		abortCell(err)
	}
	if sc.fill != nil {
		sc.fill(&m.res, base)
	}
}

// simulate runs ms, fused when there are several. Should the fused pass
// panic, every member reruns alone, so a fault stays confined to the
// member that causes it.
func (g *cellGroup) simulate(ms []*member) {
	if len(ms) > 1 {
		cols := make([]*telemetry.Collector, len(ms))
		for i, m := range ms {
			cols[i] = g.collector(m)
		}
		if rs, ok := g.tryGang(ms, cols); ok {
			for i, m := range ms {
				g.mergeCollector(m, cols[i])
				g.publish(m, &rs[i], nil)
			}
			return
		}
	}
	for _, m := range ms {
		g.runSolo(m)
	}
}

// runSolo runs one member alone, recording a panic as the member's fault.
func (g *cellGroup) runSolo(m *member) {
	col := g.collector(m)
	defer g.mergeCollector(m, col)
	defer func() {
		if v := recover(); v != nil {
			g.publish(m, nil, v)
		}
	}()
	res := g.p.solo(m.req, col)
	g.publish(m, &res, nil)
}

// tryGang runs ms as one fused pass, reporting false when the pass
// panicked or refused to fuse.
func (g *cellGroup) tryGang(ms []*member, cols []*telemetry.Collector) (out []simResult, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	p, req := g.p, ms[0].req
	out = make([]simResult, len(ms))
	if !req.timing {
		pts := make([]sim.GangPoint, len(ms))
		for i, m := range ms {
			pts[i] = configOf(m.req.point)
			pts[i].Config.Telemetry = cols[i]
		}
		rep := req.w.ReplayPrefix(p.AccuracyBudget, p.shareBudget())
		res, fused := sim.RunAccuracyGangCtx(p.Context(), rep, p.AccuracyBudget, req.flush, pts)
		for i := range res {
			out[i].acc = res[i]
		}
		return out, fused
	}
	machines := make([]*cpu.Machine, len(ms))
	for i, m := range ms {
		cfg := configOf(m.req.point).Config
		cfg.Telemetry = cols[i]
		machines[i] = cpu.New(m.req.machine, sim.NewEngine(cfg))
	}
	res := cpu.RunReplayGang(p.Context(), req.w.ReplayPrefix(p.TimingBudget, p.shareBudget()), p.TimingBudget, machines)
	for i := range res {
		out[i].cpu = res[i]
	}
	return out, true
}

// publish settles a member with its result or fault: it accounts the
// instructions simulated, stores a successful result in the memo and
// wakes the cells waiting on it.
func (g *cellGroup) publish(m *member, res *simResult, fault any) {
	if res != nil {
		m.res = *res
		instructionsSim.Add(res.instructions())
	}
	m.fault = fault
	if memo := g.p.memo(); memo != nil {
		memoMisses.Add(1)
		memo.settle(m.key, m.entry, &m.res, fault == nil && m.res.err() == nil)
	}
	close(m.done)
}

// skip settles a member none of whose cells survived the prologue,
// withdrawing its memo claim unsimulated.
func (g *cellGroup) skip(m *member) {
	if m.entry != nil {
		g.p.memo().settle(m.key, m.entry, nil, false)
	}
	close(m.done)
}

// collector returns a fresh collector for m's owning cell, nil when
// telemetry is off or m has no owner.
func (g *cellGroup) collector(m *member) *telemetry.Collector {
	if m.owner == nil {
		return nil
	}
	return g.p.startCollector()
}

// mergeCollector folds m's collector into the recorder under its owning
// cell's key.
func (g *cellGroup) mergeCollector(m *member, col *telemetry.Collector) {
	if m.owner != nil {
		g.p.forCell(m.owner.id).mergeCollector(col)
	}
}
