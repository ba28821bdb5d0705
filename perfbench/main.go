// Command perfbench is the repository's benchmark. It runs one named
// workload of the simulator for a fixed time, checks that the outputs are
// correct, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) as the last line of standard output:
//
//	perfbench -workload suite -seed 1 -seconds 24 -trace 0
//
// Every iteration runs in a fresh child process, so set-up is paid on each
// one (as on every tcsim process) and each iteration's peak resident memory
// is its own. The parent reports medians over the iterations.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"time"
)

// deadline bounds one benchmark invocation; iterations stop being started
// well before it so that the process always exits in time.
const (
	deadline      = 170 * time.Second
	stopStarting  = 110 * time.Second
	minIterations = 3
)

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	benchJSON string
	expected  string
	workdir   string
}

func main() {
	var (
		o        options
		traceArg int
		childRun = flag.Bool("child", false, "run one iteration in this process and print it as JSON (internal)")
		ref      = flag.String("ref", "", "with -child: reference mode, "+refInMemory+" or "+refDirect)
	)
	flag.StringVar(&o.workload, "workload", "", "workload: suite, sweep or outofcore")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (chooses the sweep grid)")
	flag.Float64Var(&o.seconds, "seconds", 24, "measure for at least this many seconds")
	flag.IntVar(&traceArg, "trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.StringVar(&o.benchJSON, "benchmark", "BENCHMARK.json", "benchmark definition (nominal instruction counts)")
	flag.StringVar(&o.expected, "expected", "perfbench/expected.json", "recorded output digests")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/run", "scratch directory for trace stores and span files")
	flag.Parse()
	o.trace = traceArg == 1

	if *childRun {
		it, err := runChild(o.workload, o.seed, o.trace, *ref, o.workdir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
			os.Exit(1)
		}
		if err := json.NewEncoder(os.Stdout).Encode(it); err != nil {
			os.Exit(1)
		}
		return
	}
	if traceArg != 0 && traceArg != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// nominalInstructions reads the workload's nominal simulated-instruction
// count from its "why" in BENCHMARK.json, where it is recorded once.
func nominalInstructions(path, name string) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var def struct {
		Workloads []struct{ Name, Why string }
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	re := regexp.MustCompile(`nominal ([0-9]+) instr`)
	for _, w := range def.Workloads {
		if w.Name != name {
			continue
		}
		m := re.FindStringSubmatch(w.Why)
		if m == nil {
			return 0, fmt.Errorf("%s: workload %s records no nominal instruction count", path, name)
		}
		return strconv.ParseInt(m[1], 10, 64)
	}
	return 0, fmt.Errorf("%s: no workload %q", path, name)
}

// runChildProcess runs one iteration in a fresh process and returns its
// report with the process's own peak resident memory.
func runChildProcess(ctx context.Context, o options, traced bool, ref string) (*iteration, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-workdir", o.workdir, "-ref", ref, "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
	}
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	peak, err := runMeasured(cmd)
	if err != nil {
		return nil, fmt.Errorf("%s iteration: %w", o.workload, err)
	}
	var it iteration
	if err := json.Unmarshal(stdout.Bytes(), &it); err != nil {
		return nil, fmt.Errorf("%s iteration: bad report: %w", o.workload, err)
	}
	it.PeakRSSMB = peak
	return &it, nil
}

// runMeasured runs cmd to completion and returns its peak resident set in
// MiB, from the kernel's per-child accounting: each child's figure covers
// that child alone, never the high-water mark of an earlier one.
func runMeasured(cmd *exec.Cmd) (peakMB float64, err error) {
	if err := cmd.Run(); err != nil {
		return 0, err
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("no rusage for child process")
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

func loadExpected(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]string
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// run measures o.workload: untraced iterations (and, with -trace 1, a
// traced iteration after each) until o.seconds have passed, then checks
// every iteration's output and summarises.
func run(o options) (*result, error) {
	nominal, err := nominalInstructions(o.benchJSON, o.workload)
	if err != nil {
		return nil, err
	}
	expected, err := loadExpected(o.expected)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	start := time.Now()
	var plain, traced []*iteration
	for {
		it, err := runChildProcess(ctx, o, false, "")
		if err != nil {
			return nil, err
		}
		plain = append(plain, it)
		if o.trace {
			it, err := runChildProcess(ctx, o, true, "")
			if err != nil {
				return nil, err
			}
			traced = append(traced, it)
		}
		elapsed := time.Since(start)
		if elapsed >= stopStarting || elapsed.Seconds() >= o.seconds && (o.trace || len(plain) >= minIterations) {
			break
		}
	}

	want, err := wantDigest(ctx, o, expected)
	if err != nil {
		return nil, err
	}
	if o.trace {
		if err := writeSpans(o, traced); err != nil {
			return nil, err
		}
	}
	return summarise(o.workload, nominal, want, plain, traced), nil
}

// wantDigest returns the digest every iteration's output must have:
// suite's recorded one; sweep's recorded one for the seed, or failing that
// the digest of the same grid with fusion off (the path the gang kernel is
// pinned against); for outofcore, the digest of the same experiments run
// in memory.
func wantDigest(ctx context.Context, o options, expected map[string]string) (string, error) {
	var ref string
	switch o.workload {
	case "suite":
		if d, ok := expected["suite"]; ok {
			return d, nil
		}
		return "", fmt.Errorf("%s records no suite digest", o.expected)
	case "sweep":
		if d, ok := expected[fmt.Sprintf("sweep/%d", o.seed)]; ok {
			return d, nil
		}
		ref = refDirect
	case "outofcore":
		ref = refInMemory
	}
	it, err := runChildProcess(ctx, o, false, ref)
	if err != nil {
		return "", fmt.Errorf("reference run: %w", err)
	}
	return it.Digest, nil
}

func writeSpans(o options, traced []*iteration) error {
	var all [][]span
	for _, it := range traced {
		all = append(all, it.Spans)
	}
	data, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.workdir, fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed)), data, 0o644)
}
