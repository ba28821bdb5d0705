package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/stats"
)

// The suite runner executes experiments in canonical order with the fault
// tolerance the individual cell scheduler provides, plus run-level
// concerns: per-experiment deadlines, graceful cancellation (partial
// output + a summary instead of a dead terminal), and checkpoint/resume
// through a manifest file. The runner owns all rendering so that a chunk
// replayed from a manifest is byte-identical to one computed fresh.

// SuiteOptions configure RunSuite.
type SuiteOptions struct {
	// Experiments to run, in order; nil means All().
	Experiments []*Experiment
	// Params are the experiment parameters. The runner installs its own
	// context and failure log; callers set budgets/model/parallelism.
	Params Params
	// Format is "text", "csv" or "json".
	Format string
	// Timeout bounds each experiment's wall time; 0 means no deadline.
	// A timed-out experiment renders with ERR rows and is retried on
	// resume.
	Timeout time.Duration
	// ManifestPath, when non-empty, enables checkpoint/resume: completed
	// experiments' rendered output is recorded there and replayed instead
	// of re-simulated on the next run. Only fully clean experiments are
	// recorded, so failed or interrupted ones re-run.
	ManifestPath string
	// Out receives the rendered experiment output (stdout in tcsim).
	Out io.Writer
	// Log, when non-nil, receives one summary line per experiment.
	Log io.Writer
	// OnExperiment, when non-nil, is called after each experiment with
	// its execution report (the -benchjson hook).
	OnExperiment func(ExperimentReport)
}

// ExperimentReport summarises one experiment's execution.
type ExperimentReport struct {
	ID           string  `json:"-"`
	WallMS       float64 `json:"wall_ms"`
	Cells        int64   `json:"cells"`
	Instructions int64   `json:"instructions"`
	// Resumed marks experiments replayed from the manifest; their
	// counters are the recorded ones from the run that computed them.
	Resumed bool `json:"resumed,omitempty"`
}

// SuiteResult reports what a RunSuite call did.
type SuiteResult struct {
	// Completed counts experiments whose output was emitted, whether
	// computed or resumed.
	Completed int
	// Resumed lists experiment ids replayed from the manifest.
	Resumed []string
	// Failures are all cell-level and experiment-level errors, in
	// deterministic (experiment, enqueue) order.
	Failures []*CellError
	// Interrupted is set when the run context was cancelled before every
	// experiment ran; the remaining experiments were skipped.
	Interrupted bool
	// Skipped lists experiment ids not run because of the interruption.
	Skipped []string
}

// Digest renders the run's failure summary for stderr: one line per
// failed cell plus the interruption note, suitable for a non-zero exit.
func (r *SuiteResult) Digest() string {
	var b bytes.Buffer
	if len(r.Failures) > 0 {
		byExp := map[string]bool{}
		for _, ce := range r.Failures {
			byExp[ce.Experiment] = true
		}
		fmt.Fprintf(&b, "%d cell(s) failed across %d experiment(s):\n", len(r.Failures), len(byExp))
		for _, ce := range r.Failures {
			fmt.Fprintf(&b, "  %s: %v\n", ce.CellLabel(), ce.Err)
		}
	}
	if r.Interrupted {
		fmt.Fprintf(&b, "interrupted: %d experiment(s) skipped", len(r.Skipped))
		for i, id := range r.Skipped {
			sep := " "
			if i > 0 {
				sep = ", "
			}
			fmt.Fprintf(&b, "%s%s", sep, id)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// manifestFingerprint identifies the run configuration a manifest's
// recorded output is valid for. Parallelism is deliberately absent: the
// cell scheduler's output is byte-identical at any worker count.
type manifestFingerprint struct {
	AccuracyBudget int64  `json:"accuracy_budget"`
	TimingBudget   int64  `json:"timing_budget"`
	EventModel     bool   `json:"event_model"`
	Format         string `json:"format"`
}

// manifestEntry records one completed experiment: its rendered chunk
// (verbatim for text/csv, a JSON array element for json) and the work
// counters for reporting.
type manifestEntry struct {
	Output       string          `json:"output,omitempty"`
	JSON         json.RawMessage `json:"json,omitempty"`
	WallMS       float64         `json:"wall_ms"`
	Cells        int64           `json:"cells"`
	Instructions int64           `json:"instructions"`
}

type manifest struct {
	Fingerprint manifestFingerprint       `json:"fingerprint"`
	Experiments map[string]*manifestEntry `json:"experiments"`
}

func loadManifest(path string, want manifestFingerprint) (*manifest, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &manifest{Fingerprint: want, Experiments: map[string]*manifestEntry{}}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("bench: reading manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("bench: corrupt manifest %s: %w", path, err)
	}
	if m.Fingerprint != want {
		return nil, fmt.Errorf("bench: manifest %s was recorded with different settings (%+v, want %+v); delete it or rerun with the original flags",
			path, m.Fingerprint, want)
	}
	if m.Experiments == nil {
		m.Experiments = map[string]*manifestEntry{}
	}
	return &m, nil
}

// save writes the manifest atomically (temp file + rename) so a crash
// mid-save never leaves a truncated manifest behind.
func (m *manifest) save(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".manifest-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(append(data, '\n'))
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// jsonExperiment is the element shape of the suite's JSON output.
type jsonExperiment struct {
	ID     string         `json:"id"`
	Title  string         `json:"title"`
	Tables []*stats.Table `json:"tables"`
}

// runExperiment executes e with panic isolation at the experiment level:
// a panic escaping Run outside any cell (e.g. workload resolution) becomes
// a CellError instead of killing the suite.
func runExperiment(e *Experiment, p Params) (tables []*stats.Table, expErr *CellError) {
	defer func() {
		if v := recover(); v != nil {
			err, stack := recoveredErr(v)
			expErr = &CellError{Experiment: e.ID, Err: err, Stack: stack}
			p.failures().add(expErr)
		}
	}()
	return e.Run(p), nil
}

// renderChunk renders one experiment's output for text or csv format.
func renderChunk(format string, e *Experiment, tables []*stats.Table, expErr *CellError) (string, error) {
	var b bytes.Buffer
	switch format {
	case "text":
		fmt.Fprintf(&b, "== %s: %s ==\n\n", e.ID, e.Title)
		if expErr != nil {
			fmt.Fprintf(&b, "experiment failed: %v\n\n", expErr.Err)
		}
		for _, table := range tables {
			table.Render(&b)
			fmt.Fprintln(&b)
		}
	case "csv":
		for _, table := range tables {
			fmt.Fprintf(&b, "# %s: %s\n", e.ID, table.Title)
			if err := table.WriteCSV(&b); err != nil {
				return "", err
			}
		}
		if expErr != nil {
			fmt.Fprintf(&b, "# %s: experiment failed: %v\n", e.ID, expErr.Err)
		}
	default:
		return "", fmt.Errorf("bench: unknown output format %q", format)
	}
	return b.String(), nil
}

// RunSuite executes opts.Experiments under ctx and writes rendered output
// to opts.Out. It always finishes the experiment list unless ctx is
// cancelled; individual failures are isolated, rendered as ERR rows, and
// collected in the result. The returned error covers setup problems
// (unusable manifest, unknown format), not experiment failures.
func RunSuite(ctx context.Context, opts SuiteOptions) (*SuiteResult, error) {
	// One run state per call: the memo never outlives RunSuite, so every
	// call simulates (and counts) the same work.
	return runSuiteWith(ctx, opts, &suiteRun{})
}

// runSuiteWith is RunSuite over a caller-supplied run state.
func runSuiteWith(ctx context.Context, opts SuiteOptions, run *suiteRun) (*SuiteResult, error) {
	experiments := opts.Experiments
	if experiments == nil {
		experiments = All()
	}
	switch opts.Format {
	case "text", "csv", "json":
	default:
		return nil, fmt.Errorf("bench: unknown output format %q", opts.Format)
	}
	if opts.Out == nil {
		opts.Out = io.Discard
	}

	var man *manifest
	if opts.ManifestPath != "" {
		fp := manifestFingerprint{
			AccuracyBudget: opts.Params.AccuracyBudget,
			TimingBudget:   opts.Params.TimingBudget,
			EventModel:     opts.Params.EventModel,
			Format:         opts.Format,
		}
		var err error
		man, err = loadManifest(opts.ManifestPath, fp)
		if err != nil {
			return nil, err
		}
	}

	fails := &run.fails
	res := &SuiteResult{}
	// JSON output cannot stream per experiment: elements accumulate and
	// the array is encoded once at the end, so resumed and fresh chunks
	// are indented identically.
	var jsonElems []json.RawMessage

	report := func(r ExperimentReport) {
		if opts.OnExperiment != nil {
			opts.OnExperiment(r)
		}
	}

	for _, e := range experiments {
		if ctx.Err() != nil {
			res.Interrupted = true
			res.Skipped = append(res.Skipped, e.ID)
			continue
		}

		if man != nil {
			if ent, ok := man.Experiments[e.ID]; ok {
				if opts.Format == "json" {
					jsonElems = append(jsonElems, ent.JSON)
				} else if _, err := io.WriteString(opts.Out, ent.Output); err != nil {
					return nil, err
				}
				if opts.Log != nil {
					fmt.Fprintf(opts.Log, "tcsim: %-16s resumed from %s\n", e.ID, opts.ManifestPath)
				}
				report(ExperimentReport{
					ID: e.ID, WallMS: ent.WallMS, Cells: ent.Cells,
					Instructions: ent.Instructions, Resumed: true,
				})
				res.Completed++
				res.Resumed = append(res.Resumed, e.ID)
				continue
			}
		}

		expCtx, cancel := ctx, context.CancelFunc(func() {})
		if opts.Timeout > 0 {
			expCtx, cancel = context.WithTimeout(ctx, opts.Timeout)
		}
		p := opts.Params.WithContext(expCtx).forExperiment(e.ID, run)

		nBefore := len(fails.all())
		before := SnapshotStats()
		start := time.Now()
		tables, expErr := runExperiment(e, p)
		wall := time.Since(start)
		work := SnapshotStats().Sub(before)
		cancel()
		failed := len(fails.all()) > nBefore || expErr != nil

		var ent manifestEntry
		if opts.Format == "json" {
			raw, err := json.Marshal(jsonExperiment{e.ID, e.Title, tables})
			if err != nil {
				return nil, err
			}
			jsonElems = append(jsonElems, raw)
			ent.JSON = raw
		} else {
			chunk, err := renderChunk(opts.Format, e, tables, expErr)
			if err != nil {
				return nil, err
			}
			if _, err := io.WriteString(opts.Out, chunk); err != nil {
				return nil, err
			}
			ent.Output = chunk
		}
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, "tcsim: %-16s %8.1f ms  %4d cells  %12d instructions\n",
				e.ID, float64(wall.Microseconds())/1000, work.Cells, work.Instructions)
		}
		ent.WallMS = float64(wall.Microseconds()) / 1000
		ent.Cells = work.Cells
		ent.Instructions = work.Instructions
		report(ExperimentReport{
			ID: e.ID, WallMS: ent.WallMS, Cells: ent.Cells, Instructions: ent.Instructions,
		})
		res.Completed++

		// Checkpoint only clean experiments: failed or interrupted ones
		// must re-run on resume so the resumed output matches a healthy
		// uninterrupted run byte for byte.
		if man != nil && !failed {
			man.Experiments[e.ID] = &ent
			if err := man.save(opts.ManifestPath); err != nil {
				return nil, fmt.Errorf("bench: saving manifest: %w", err)
			}
		}
	}

	if opts.Format == "json" {
		enc := json.NewEncoder(opts.Out)
		enc.SetIndent("", "  ")
		var arr any
		if jsonElems != nil {
			arr = jsonElems
		}
		if err := enc.Encode(arr); err != nil {
			return nil, err
		}
	}

	res.Failures = fails.all()
	sortFailures(res.Failures, experiments)
	return res, nil
}

// sortFailures orders failures by experiment position (cell order within
// an experiment is already deterministic enqueue order).
func sortFailures(errs []*CellError, experiments []*Experiment) {
	rank := make(map[string]int, len(experiments))
	for i, e := range experiments {
		rank[e.ID] = i
	}
	sort.SliceStable(errs, func(i, j int) bool {
		return rank[errs[i].Experiment] < rank[errs[j].Experiment]
	})
}
