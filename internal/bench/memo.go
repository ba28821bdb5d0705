package bench

import (
	"sync"
	"sync/atomic"

	"repro/internal/btb"
	"repro/internal/cpu"
	"repro/internal/dirpred"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Simulation requests and the suite memo. Every single-simulation cell
// names what it simulates as plain data — a predictor point on a
// workload, through the accuracy model or the timing model on a machine —
// so the scheduler can compare, group and memoize cells without running
// them. A RunSuite call owns one memo: each distinct request simulates at
// most once per suite, and later cells (in the same or a later
// experiment) read the stored result instead of replaying the capture.

// request is one simulation: point on w through the accuracy model,
// with the whole front end reset every flush instructions when flush is
// positive, or, when timing is set, through the timing model on machine —
// the event-driven model when event is set, the fast one otherwise.
type request struct {
	w       *workload.Workload
	point   sweep.Point
	flush   int64
	timing  bool
	machine cpu.Config
	event   bool
}

func accuracyRequest(w *workload.Workload, pt sweep.Point) request {
	return request{w: w, point: pt}
}

func timingRequest(w *workload.Workload, pt sweep.Point, mc cpu.Config, event bool) request {
	return request{w: w, point: pt, timing: true, machine: mc, event: event}
}

// memoKey identifies a request's result under the suite's parameters.
type memoKey struct {
	timing   bool
	workload string
	budget   int64
	point    string // sweep.Point.ConfigLabel
	flush    int64
	machine  cpu.Config
	event    bool
}

func (r request) key(p Params) memoKey {
	k := memoKey{workload: r.w.Name, budget: p.AccuracyBudget, point: r.point.ConfigLabel(), flush: r.flush}
	if r.timing {
		k.timing, k.budget, k.machine, k.event = true, p.TimingBudget, r.machine, r.event
	}
	return k
}

// gangGroup is what members of one fused pass must share: the model, the
// capture, and the front end the kernel cannot split into lanes. An
// accuracy gang fuses members of any BTB and RAS geometry, so its group
// keys on the direction predictor and the flush interval only; a timing
// gang shares its whole front end and machine.
type gangGroup struct {
	timing, event bool
	workload      string
	front         frontEnd
	flush         int64
	machine       cpu.Config
}

// frontEnd is the part of a sim.Config's front end a fused pass shares
// across its members.
type frontEnd struct {
	btb btb.Config
	ras int
	dir dirpred.Config
}

func (r request) group() gangGroup {
	g := gangGroup{timing: r.timing, event: r.event, workload: r.w.Name, flush: r.flush, machine: r.machine}
	// An invalid point keeps the zero front end; its cell fails when the
	// run builds the config.
	if cfg, err := r.point.SimConfig(); err == nil {
		g.front.dir = cfg.Dir
		if r.timing {
			g.front.btb, g.front.ras = cfg.BTB, cfg.RASDepth
		}
	}
	return g
}

// gangPoint builds a request's simulation config. It is a variable so the
// scheduler's fault-isolation tests can wrap a member's predictor.
var gangPoint = sweep.Point.GangPoint

// configOf builds pt's simulation config; an invalid point is a
// programming error in the experiment and fails the cell.
func configOf(pt sweep.Point) sim.GangPoint {
	gp, err := gangPoint(pt)
	if err != nil {
		abortCell(err)
	}
	return gp
}

// simResult is a finished request: the accuracy or the timing result.
type simResult struct {
	acc sim.AccuracyResult
	cpu cpu.Result
}

func (r *simResult) err() error {
	if r.acc.Err != nil {
		return r.acc.Err
	}
	return r.cpu.Err
}

func (r *simResult) instructions() int64 { return r.acc.Instructions + r.cpu.Instructions }

// simMemo holds the suite's finished requests. Entries are single-flight:
// the first caller of a key owns it and simulates; concurrent callers
// wait on its done channel. Only successful results are kept — a failed
// owner removes its entry, and a waiter then simulates for itself — so an
// injected fault, a corrupt capture or a timeout in one experiment never
// leaks into another.
type simMemo struct {
	mu      sync.Mutex
	entries map[memoKey]*memoEntry
}

type memoEntry struct {
	done chan struct{}
	res  simResult
	ok   bool
}

// acquire returns k's stored entry (hit), or claims k (owner) and returns
// the entry the caller must settle. It blocks while another caller owns k.
func (m *simMemo) acquire(k memoKey) (e *memoEntry, owner bool) {
	for {
		m.mu.Lock()
		if m.entries == nil {
			m.entries = make(map[memoKey]*memoEntry)
		}
		e, ok := m.entries[k]
		if !ok {
			e = &memoEntry{done: make(chan struct{})}
			m.entries[k] = e
			m.mu.Unlock()
			return e, true
		}
		m.mu.Unlock()
		<-e.done
		if e.ok {
			memoHits.Add(1)
			return e, false
		}
	}
}

// settle publishes an owned entry: res is stored when ok, otherwise the
// claim is withdrawn. Either way waiters wake.
func (m *simMemo) settle(k memoKey, e *memoEntry, res *simResult, ok bool) {
	m.mu.Lock()
	if ok {
		e.res, e.ok = *res, true
	} else {
		delete(m.entries, k)
	}
	m.mu.Unlock()
	close(e.done)
}

// suiteRun is the state one RunSuite call shares across its experiments.
type suiteRun struct {
	fails failureLog
	memo  simMemo
}

var (
	memoHits   atomic.Int64
	memoMisses atomic.Int64
)
