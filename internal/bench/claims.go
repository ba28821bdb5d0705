package bench

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// A Claim is one of the paper's qualitative findings, stated as an
// executable check. Claims compare measured quantities with margins, so
// they hold across budgets and seeds; they are the reproduction's
// regression suite in experiment form (`tcsim -exp verify`).
type Claim struct {
	// ID numbers the claim as in DESIGN.md.
	ID int
	// Statement paraphrases the paper.
	Statement string
	// Check returns a human-readable measurement and whether the claim
	// held.
	Check func(p Params) (string, bool)
}

// mispredict measures the indirect misprediction rate of pt on w over
// the memoized trace replay.
func mispredict(w *workload.Workload, p Params, pt sweep.Point) float64 {
	return runAccuracy(w, p, pt).IndirectMispredictRate()
}

func mustWorkload(name string) *workload.Workload {
	w, err := workload.ByName(name)
	if err != nil {
		panic(err)
	}
	return w
}

// Claims returns the paper's checkable findings.
func Claims() []Claim {
	return []Claim{
		{
			ID:        1,
			Statement: "BTBs mispredict indirect jumps badly on indirect-heavy benchmarks (perl, gcc)",
			Check: func(p Params) (string, bool) {
				perl := mispredict(mustWorkload("perl"), p, btbPoint)
				gcc := mispredict(mustWorkload("gcc"), p, btbPoint)
				return fmt.Sprintf("perl %.1f%%, gcc %.1f%%", 100*perl, 100*gcc),
					perl > 0.5 && gcc > 0.4
			},
		},
		{
			ID:        2,
			Statement: "the 2-bit BTB strategy is a mixed bag (helps some, hurts others); the target cache beats both on perl and gcc",
			Check: func(p Params) (string, bool) {
				helps, hurts := 0, 0
				for _, w := range workload.All() {
					def := mispredict(w, p, btbPoint)
					two := mispredict(w, p, btbTwoBitPoint)
					if two < def {
						helps++
					} else if two > def {
						hurts++
					}
				}
				tcWins := true
				for _, name := range []string{"perl", "gcc"} {
					w := mustWorkload(name)
					def := mispredict(w, p, btbPoint)
					two := mispredict(w, p, btbTwoBitPoint)
					tc := mispredict(w, p, gsharePoint(9))
					if tc >= def || tc >= two {
						tcWins = false
					}
				}
				return fmt.Sprintf("2-bit helps %d and hurts %d of 8; target cache beats both on perl+gcc: %v",
					helps, hurts, tcWins), helps >= 2 && hurts >= 2 && tcWins
			},
		},
		{
			ID:        3,
			Statement: "gshare is the best tagless index hash on perl and gcc",
			Check: func(p Params) (string, bool) {
				ok := true
				var msg string
				for _, name := range []string{"perl", "gcc"} {
					w := mustWorkload(name)
					gshare := mispredict(w, p, gsharePoint(9))
					gag := mispredict(w, p, taglessPoint("gag", "pattern", 9))
					gas := mispredict(w, p, taglessPoint("gas", "pattern", 8))
					if gshare > gag+0.01 || gshare > gas+0.01 {
						ok = false
					}
					msg += fmt.Sprintf("%s: gshare %.1f%% GAg %.1f%% GAs %.1f%%  ",
						name, 100*gshare, 100*gag, 100*gas)
				}
				return msg, ok
			},
		},
		{
			ID:        4,
			Statement: "pattern history wins on gcc; global ind-jmp path history wins on perl (perl is an interpreter)",
			Check: func(p Params) (string, bool) {
				perl := mustWorkload("perl")
				gcc := mustWorkload("gcc")
				perlPat := mispredict(perl, p, gsharePoint(9))
				perlPath := mispredict(perl, p, taglessPoint("gshare", "path-indjmp", 9))
				gccPat := mispredict(gcc, p, gsharePoint(9))
				gccPath := mispredict(gcc, p, taglessPoint("gshare", "path-indjmp", 9))
				return fmt.Sprintf("perl pat %.1f%% path %.1f%%; gcc pat %.1f%% path %.1f%%",
						100*perlPat, 100*perlPath, 100*gccPat, 100*gccPath),
					perlPath < perlPat && gccPat < gccPath
			},
		},
		{
			ID:        5,
			Statement: "lower target-address bits carry more path information than higher bits",
			Check: func(p Params) (string, bool) {
				w := mustWorkload("gcc")
				branchPath := taglessPoint("gshare", "path-branch", 9)
				low := mispredict(w, p, withPath(branchPath, 1, 2))
				high := mispredict(w, p, withPath(branchPath, 1, 12))
				return fmt.Sprintf("gcc branch-path: bit2 %.1f%% vs bit12 %.1f%%",
					100*low, 100*high), low < high
			},
		},
		{
			ID:        6,
			Statement: "Address-indexed tagged caches need associativity; History-XOR works direct-mapped",
			Check: func(p Params) (string, bool) {
				w := mustWorkload("perl")
				addr1 := mispredict(w, p, taggedPoint("addr", 1, "pattern", 9))
				xor1 := mispredict(w, p, taggedPoint("xor", 1, "pattern", 9))
				return fmt.Sprintf("perl 1-way: Addr %.1f%% vs Xor %.1f%%",
					100*addr1, 100*xor1), xor1+0.05 < addr1
			},
		},
		{
			ID:        7,
			Statement: "longer history helps high-associativity tagged caches and hurts low-associativity ones (gcc)",
			Check: func(p Params) (string, bool) {
				w := mustWorkload("gcc")
				lo9 := mispredict(w, p, taggedPoint("xor", 1, "pattern", 9))
				lo16 := mispredict(w, p, taggedPoint("xor", 1, "pattern", 16))
				hi9 := mispredict(w, p, taggedPoint("xor", 32, "pattern", 9))
				hi16 := mispredict(w, p, taggedPoint("xor", 32, "pattern", 16))
				return fmt.Sprintf("1-way: 9b %.1f%% vs 16b %.1f%%; 32-way: 9b %.1f%% vs 16b %.1f%%",
						100*lo9, 100*lo16, 100*hi9, 100*hi16),
					lo16 > lo9-0.02 && hi16 < hi9
			},
		},
		{
			ID:        8,
			Statement: "tagless beats low-associativity tagged; tagged with >=4 ways is at least competitive",
			Check: func(p Params) (string, bool) {
				w := mustWorkload("perl")
				tagless := mispredict(w, p, gsharePoint(9))
				tag1 := mispredict(w, p, taggedPoint("xor", 1, "pattern", 9))
				tag8 := mispredict(w, p, taggedPoint("xor", 8, "pattern", 9))
				return fmt.Sprintf("perl: tagless %.1f%%, tagged 1-way %.1f%%, tagged 8-way %.1f%%",
						100*tagless, 100*tag1, 100*tag8),
					tagless < tag1 && tag8 <= tagless+0.01
			},
		},
	}
}

// The verify experiment runs every claim and reports PASS/FAIL.
var verifyExperiment = registerExperiment(&Experiment{
	ID:    "verify",
	Title: "Verify the paper's qualitative claims against this reproduction",
	Run: func(p Params) []*stats.Table {
		claims := Claims()
		type claimCell struct {
			msg string
			ok  bool
		}
		// One cell per claim; the simulations inside share memoized
		// replays, so concurrent claims do not duplicate VM work.
		g := newCellGroup(p)
		cells := make([]*slot[claimCell], len(claims))
		for i, c := range claims {
			cells[i] = cell(g, cellID{Config: fmt.Sprintf("claim-%d", c.ID)}, func(p Params) claimCell {
				msg, ok := c.Check(p)
				return claimCell{msg, ok}
			})
		}
		g.run()
		t := stats.NewTable("Paper claims verification",
			"#", "claim", "measured", "verdict")
		passed := 0
		for i, c := range claims {
			if !cells[i].ok() {
				t.AddRow(fmt.Sprintf("%d", c.ID), c.Statement, "ERR", "ERR")
				continue
			}
			verdict := "PASS"
			if cells[i].val.ok {
				passed++
			} else {
				verdict = "FAIL"
			}
			t.AddRow(fmt.Sprintf("%d", c.ID), c.Statement, cells[i].val.msg, verdict)
		}
		t.AddNote("%d/%d claims reproduced", passed, len(claims))
		return g.finish([]*stats.Table{t})
	},
})
