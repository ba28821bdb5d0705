// Command tcsim runs the paper-reproduction experiments and prints their
// tables.
//
// Usage:
//
//	tcsim -list
//	tcsim -exp table4
//	tcsim -exp all -n 5000000 -t 2000000 -parallel 4
//	tcsim -exp all -timeout 2m -resume run.json
//	tcsim -exp all -n 100000000 -trace-store /tmp/tc -spill-mb 256
//
// The suite is fault tolerant: a failing simulation cell marks only its
// own rows as ERR, every other experiment still runs, and tcsim exits
// non-zero with a failure digest on stderr. Ctrl-C drains gracefully
// (partial results plus a summary; a second Ctrl-C kills immediately),
// and -resume records completed experiments so a restarted run only
// recomputes what is missing — byte-identical to an uninterrupted run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/benchfmt"
	"repro/internal/perfstore/client"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		exp        = flag.String("exp", "all", "experiment id (see -list), or \"all\"")
		list       = flag.Bool("list", false, "list experiments and exit")
		nAcc       = flag.Int64("n", 0, "accuracy-simulation instruction budget (default 2M)")
		nTime      = flag.Int64("t", 0, "timing-simulation instruction budget (default 1M)")
		model      = flag.String("model", "fast", "timing model: fast | event")
		format     = flag.String("format", "text", "output format: text | json | csv")
		parallel   = flag.Int("parallel", 0, "simulation cells run concurrently per experiment (0 = one per CPU, 1 = serial)")
		traceStore = flag.String("trace-store", "", "spill large captures to columnar trace-store files in this directory")
		spillMB    = flag.Int("spill-mb", 256, "with -trace-store: captures above this in-memory size (MB) spill to disk")
		timeout    = flag.Duration("timeout", 0, "per-experiment deadline (0 = none); timed-out cells render ERR")
		resume     = flag.String("resume", "", "run manifest path: completed experiments are recorded there and replayed on restart")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		benchJSON  = flag.String("benchjson", "", "write per-experiment wall time and work counters to this JSON file")
		benchFmt   = flag.String("benchfmt", "", "write per-experiment results in the standard Go benchmark format to this file")
		count      = flag.Int("count", 1, "repetitions of the whole suite; each rep adds one result set to -benchfmt")
		warmup     = flag.Int("warmup", 0, "unrecorded warm-up repetitions before the -count recorded ones (prime caches and capture memos)")
		quiet      = flag.Bool("quiet", false, "suppress the per-experiment summary on stderr")
		telemOut   = flag.String("telemetry", "", "write per-site predictor statistics and run metrics to this JSON file")
		events     = flag.Int("events", 0, "misprediction events retained per simulation cell (0 = no event log)")
		sites      = flag.Bool("sites", false, "print the per-site misprediction report after the experiment tables")
		sitesTop   = flag.Int("sites-top", 10, "sites shown per cell in the -sites report (0 = all)")
		uploadURL  = flag.String("upload", "", "tcperf server base URL; uploads the -benchjson and -telemetry outputs after the run")
		commit     = flag.String("commit", "", "commit id to tag uploads with (required by -upload)")
		outbox     = flag.String("outbox", "", "spool directory for uploads when the tcperf server is unreachable")
	)
	flag.Parse()

	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
		return 2
	}

	// Validate everything up front: a bad flag must fail before any
	// simulation starts, not minutes into a run. Explicitly-set
	// non-positive budgets are rejected rather than silently replaced by
	// defaults.
	var usageErr string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "n":
			if *nAcc <= 0 {
				usageErr = fmt.Sprintf("-n must be positive, got %d", *nAcc)
			}
		case "t":
			if *nTime <= 0 {
				usageErr = fmt.Sprintf("-t must be positive, got %d", *nTime)
			}
		case "parallel":
			if *parallel <= 0 {
				usageErr = fmt.Sprintf("-parallel must be positive, got %d", *parallel)
			}
		case "timeout":
			if *timeout <= 0 {
				usageErr = fmt.Sprintf("-timeout must be positive, got %v", *timeout)
			}
		case "spill-mb":
			if *spillMB <= 0 {
				usageErr = fmt.Sprintf("-spill-mb must be positive, got %d", *spillMB)
			}
			if *traceStore == "" {
				usageErr = "-spill-mb needs -trace-store"
			}
		case "events":
			if *events < 0 {
				usageErr = fmt.Sprintf("-events must be non-negative, got %d", *events)
			}
		case "sites-top":
			if *sitesTop < 0 {
				usageErr = fmt.Sprintf("-sites-top must be non-negative, got %d", *sitesTop)
			}
		case "count":
			if *count < 1 {
				usageErr = fmt.Sprintf("-count must be at least 1, got %d", *count)
			}
		case "warmup":
			if *warmup < 0 {
				usageErr = fmt.Sprintf("-warmup must be non-negative, got %d", *warmup)
			}
		}
	})
	if usageErr != "" {
		return fail("tcsim: %s", usageErr)
	}
	switch *model {
	case "fast", "event":
	default:
		return fail("tcsim: unknown timing model %q (want fast or event)", *model)
	}
	switch *format {
	case "text", "json", "csv":
	default:
		return fail("tcsim: unknown output format %q (want text, json or csv)", *format)
	}
	if *uploadURL != "" {
		if *benchJSON == "" && *telemOut == "" && *benchFmt == "" {
			return fail("tcsim: -upload needs -benchjson, -benchfmt or -telemetry (there is nothing else to upload)")
		}
		if *commit == "" {
			return fail("tcsim: -upload needs -commit to tag the results")
		}
	} else if *outbox != "" {
		return fail("tcsim: -outbox only makes sense with -upload")
	} else if *commit != "" && *benchFmt == "" {
		return fail("tcsim: -commit only makes sense with -upload or -benchfmt")
	}
	if *count > 1 || *warmup > 0 {
		// Repetitions exist to collect independent samples for the
		// significance-testing tcbenchdiff; a resume manifest would replay
		// reps 2..N from disk (zero-cost, zero-information samples) and
		// the telemetry recorder would merge N runs into one report.
		if *resume != "" {
			return fail("tcsim: -count/-warmup cannot be combined with -resume")
		}
		if *telemOut != "" || *sites {
			return fail("tcsim: -count/-warmup cannot be combined with -telemetry or -sites")
		}
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
		}
		return 0
	}

	params := bench.DefaultParams()
	if *nAcc > 0 {
		params.AccuracyBudget = *nAcc
	}
	if *nTime > 0 {
		params.TimingBudget = *nTime
	}
	if *parallel > 0 {
		params.Parallel = *parallel
	}
	params.EventModel = *model == "event"

	if *traceStore != "" {
		// A capture's decoded columns take trace.NarrowRecordBytes per
		// record (every shipped workload's addresses fit the narrow
		// columns), so the MB threshold converts to a record budget above
		// which captures stream to disk instead.
		workload.ConfigureSpill(workload.SpillConfig{
			Dir:       *traceStore,
			Threshold: int64(*spillMB) << 20 / trace.NarrowRecordBytes,
			Compress:  true,
		})
	}

	// Telemetry is collected only when some output wants it; otherwise the
	// recorder stays nil and the simulators skip collection entirely.
	var recorder *telemetry.Recorder
	if *telemOut != "" || *sites {
		recorder = telemetry.NewRecorder(telemetry.Config{Events: *events})
		params.Telemetry = recorder
	} else if *events > 0 {
		return fail("tcsim: -events needs a sink; add -telemetry or -sites")
	}

	var toRun []*bench.Experiment
	if *exp == "all" {
		toRun = bench.All()
	} else {
		e, err := bench.ByID(*exp)
		if err != nil {
			return fail("%v", err)
		}
		toRun = append(toRun, e)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail("%v", err)
		}
		defer pprof.StopCPUProfile()
	}

	// First Ctrl-C or SIGTERM (what container runtimes and CI cancellers
	// send) cancels the run context: in-flight kernels stop at their next
	// poll, the suite renders what it has and summarises. Once the context
	// fires, the handler is unregistered, so a second signal terminates
	// the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	benchOut := make(map[string]bench.ExperimentReport, len(toRun))
	var fmtReports []bench.ExperimentReport
	var logw *os.File
	if !*quiet {
		logw = os.Stderr
	}
	before := bench.SnapshotStats()
	start := time.Now()
	// -count reruns the whole suite, each rep an independent sample for
	// tcbenchdiff's significance tests, after -warmup unrecorded reps
	// that prime the capture memos (a cold first rep pays the one-time
	// capture cost and would pollute the sample with a huge outlier).
	// Only the first recorded rep renders tables (the output is
	// byte-identical across reps by construction); every recorded rep
	// appends its reports to the -benchfmt result set. benchjson keeps
	// the final rep: its memoized captures are warm, making it the
	// steadier single-number snapshot.
	var res *bench.SuiteResult
	var digests []string
	for rep := 1 - *warmup; rep <= *count; rep++ {
		recorded := rep >= 1
		opts := bench.SuiteOptions{
			Experiments:  toRun,
			Params:       params,
			Format:       *format,
			Timeout:      *timeout,
			ManifestPath: *resume,
			Out:          io.Discard,
		}
		if recorded {
			opts.OnExperiment = func(r bench.ExperimentReport) {
				benchOut[r.ID] = r
				fmtReports = append(fmtReports, r)
			}
		}
		if rep == 1 {
			opts.Out = os.Stdout
		}
		if logw != nil {
			opts.Log = logw
			switch {
			case !recorded:
				fmt.Fprintf(logw, "tcsim: warm-up rep %d/%d\n", rep+*warmup, *warmup)
			case *count > 1:
				fmt.Fprintf(logw, "tcsim: rep %d/%d\n", rep, *count)
			}
		}
		var err error
		res, err = bench.RunSuite(ctx, opts)
		if err != nil {
			return fail("tcsim: %v", err)
		}
		if d := res.Digest(); d != "" {
			if *count > 1 || *warmup > 0 {
				d = fmt.Sprintf("rep %d/%d: %s", rep, *count, d)
			}
			digests = append(digests, d)
		}
		if res.Interrupted {
			break
		}
	}
	wall := time.Since(start)
	work := bench.SnapshotStats().Sub(before)

	if !*quiet {
		if work.MemoHits+work.MemoMisses > 0 {
			fmt.Fprintf(os.Stderr, "tcsim: suite memo %d hits / %d misses\n", work.MemoHits, work.MemoMisses)
		}
		if spilledCaptures, spilledBytes := workload.SpillStats(); spilledCaptures > 0 {
			cache := trace.StoreCacheCounters()
			fmt.Fprintf(os.Stderr, "tcsim: spilled %d captures (%d bytes on disk); store cache %d hits / %d misses / %d evictions\n",
				spilledCaptures, spilledBytes, cache.Hits, cache.Misses, cache.Evictions)
		}
	}

	// Telemetry and benchjson outputs are written even when the run was
	// interrupted (partial telemetry covers the cells that finished), and
	// atomically (temp + rename), so a drained SIGINT run always leaves
	// valid JSON behind — never a truncated file.
	var telemReport *telemetry.Report
	if recorder != nil {
		replayCalls, captureCount := workload.MemoCounters()
		_, memoBytes := workload.MemoStats()
		cache := trace.StoreCacheCounters()
		spilledCaptures, spilledBytes := workload.SpillStats()
		rep := recorder.Report(telemetry.RunInfo{
			Workers:             params.Workers(),
			Wall:                wall,
			Instructions:        work.Instructions,
			MemoCaptures:        captureCount,
			MemoHits:            replayCalls - captureCount,
			MemoBytes:           memoBytes,
			StoreCacheHits:      cache.Hits,
			StoreCacheMisses:    cache.Misses,
			StoreCacheEvictions: cache.Evictions,
			SpilledCaptures:     spilledCaptures,
			SpilledBytes:        spilledBytes,
			Interrupted:         res.Interrupted,
		})
		telemReport = rep
		if *sites {
			fmt.Println("== telemetry: per-site indirect-jump report ==")
			fmt.Println()
			if err := rep.WriteSites(os.Stdout, *sitesTop); err != nil {
				return fail("tcsim: %v", err)
			}
		}
		if *telemOut != "" {
			if err := writeJSONFile(*telemOut, rep); err != nil {
				return fail("%v", err)
			}
		}
	}

	if *benchJSON != "" {
		if err := writeJSONFile(*benchJSON, benchOut); err != nil {
			return fail("%v", err)
		}
	}
	if *benchFmt != "" {
		if err := writeBenchFmt(*benchFmt, fmtReports, params, *model, *commit); err != nil {
			return fail("%v", err)
		}
	}
	// Uploads run on their own context: the run context is already
	// cancelled after a drained interrupt, and partial results are still
	// worth shipping. With -outbox an unreachable server spools instead of
	// failing the run.
	if *uploadURL != "" {
		if err := uploadResults(*uploadURL, *outbox, *commit, *exp, benchOut, *benchJSON != "", telemReport, *telemOut != "", *benchFmt); err != nil {
			return fail("tcsim: upload: %v", err)
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fail("%v", err)
		}
		runtime.GC()
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail("%v", err)
		}
	}

	if len(digests) > 0 {
		for _, d := range digests {
			fmt.Fprint(os.Stderr, "tcsim: "+d)
		}
		if *resume != "" && (res.Interrupted || len(res.Failures) > 0) {
			fmt.Fprintf(os.Stderr, "tcsim: rerun with -resume %s to finish the remaining experiments\n", *resume)
		}
		return 1
	}
	return 0
}

// writeBenchFmt writes the accumulated per-experiment reports in the
// standard Go benchmark text format (atomically: temp + rename), one
// result line per (experiment, rep) in completion order, preceded by the
// run configuration. The file is what stock benchstat — and this repo's
// tcbenchdiff — consume.
func writeBenchFmt(path string, reports []bench.ExperimentReport, params bench.Params, model, commit string) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	cfg := []benchfmt.Config{
		{Key: "suite", Value: "tcsim"},
		{Key: "model", Value: model},
		{Key: "accuracy-budget", Value: fmt.Sprint(params.AccuracyBudget)},
		{Key: "timing-budget", Value: fmt.Sprint(params.TimingBudget)},
	}
	if commit != "" {
		cfg = append(cfg, benchfmt.Config{Key: "commit", Value: commit})
	}
	w := benchfmt.NewWriter(f)
	for _, r := range reports {
		res := benchfmt.Result{
			FullName: "BenchmarkSuite/exp=" + r.ID,
			Iters:    1,
			Values: []benchfmt.Value{
				{Value: r.WallMS * 1e6, Unit: "ns/op"},
				{Value: float64(r.Cells), Unit: "cells/op"},
				{Value: float64(r.Instructions), Unit: "instrs/op"},
			},
			Config: cfg,
		}
		if err == nil {
			err = w.Write(&res)
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	return os.Rename(f.Name(), path)
}

// uploadResults ships the run's JSON outputs to a tcperf server: any
// spooled leftovers first, then the benchjson and telemetry documents,
// tagged with this machine's fingerprint, the given commit, and the
// experiment selector. Content-hash IDs make re-running the same upload a
// no-op on the server.
func uploadResults(baseURL, outbox, commit, exp string, benchOut map[string]bench.ExperimentReport, haveBench bool, telem *telemetry.Report, haveTelem bool, benchFmtPath string) error {
	c, err := client.New(client.Config{BaseURL: baseURL, Outbox: outbox})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if outbox != "" {
		if sent, remaining, ferr := c.FlushOutbox(ctx); ferr == nil && sent > 0 {
			fmt.Fprintf(os.Stderr, "tcsim: flushed %d spooled uploads (%d left)\n", sent, remaining)
		}
	}
	machine := client.Fingerprint()
	upload := func(kind, schema string, body []byte) error {
		res, err := c.Do(ctx, client.Upload{
			Kind: kind, Machine: machine, Commit: commit, Experiment: exp, Schema: schema, Body: body,
		})
		if err != nil {
			return err
		}
		switch {
		case res.Spooled:
			fmt.Fprintf(os.Stderr, "tcsim: %s upload spooled to %s (server unreachable)\n", kind, res.SpoolPath)
		case res.Duplicate:
			fmt.Fprintf(os.Stderr, "tcsim: %s already uploaded (%s)\n", kind, res.ID)
		default:
			fmt.Fprintf(os.Stderr, "tcsim: uploaded %s as %s\n", kind, res.ID)
		}
		return nil
	}
	if haveBench {
		body, err := json.Marshal(benchOut)
		if err != nil {
			return err
		}
		if err := upload("benchjson", "", body); err != nil {
			return err
		}
	}
	if haveTelem && telem != nil {
		body, err := json.Marshal(telem)
		if err != nil {
			return err
		}
		if err := upload("telemetry", "", body); err != nil {
			return err
		}
	}
	if benchFmtPath != "" {
		// Byte-for-byte as written, so the server's record is exactly the
		// file local tooling diffs against.
		body, err := os.ReadFile(benchFmtPath)
		if err != nil {
			return err
		}
		if err := upload("benchfmt", "go-benchfmt/v1", body); err != nil {
			return err
		}
	}
	return nil
}

// writeJSONFile writes v as indented JSON via a temp file + rename, so an
// interrupt or error mid-write never leaves a truncated file at path.
func writeJSONFile(path string, v any) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(v)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	return os.Rename(f.Name(), path)
}
