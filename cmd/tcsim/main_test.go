package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The tests drive the real command: TestMain re-executes the test binary
// as tcsim when tcsimMainEnv is set, so every case checks the exit code,
// stdout and stderr a user would see.

const tcsimMainEnv = "TCSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(tcsimMainEnv) == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// tcsim runs the command with args and returns its exit code and output.
func tcsim(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), tcsimMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("tcsim %v: %v", args, err)
	}
	return code, out.String(), errOut.String()
}

func TestSuccessfulRunExitsZero(t *testing.T) {
	code, out, stderr := tcsim(t, "-exp", "table3")
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(out, "Table 3: instruction classes and latencies") {
		t.Errorf("stdout lacks the table:\n%s", out)
	}
	if !strings.Contains(stderr, "table3") {
		t.Errorf("stderr lacks the per-experiment summary:\n%s", stderr)
	}
	if code, _, stderr := tcsim(t, "-exp", "table3", "-quiet"); code != 0 || stderr != "" {
		t.Errorf("-quiet: exit %d, stderr %q; want 0 and silence", code, stderr)
	}
}

// TestBadFlagsExitTwo pins the usage contract: a bad flag fails before
// any experiment runs, with a message and no tables.
func TestBadFlagsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-exp", "table99"}, `unknown experiment "table99"`},
		{[]string{"-exp", "table3", "-model", "bogus"}, `unknown timing model "bogus"`},
		{[]string{"-exp", "table3", "-format", "bogus"}, `unknown output format "bogus"`},
		{[]string{"-exp", "table3", "-parallel", "0"}, "-parallel must be positive"},
		{[]string{"-exp", "table3", "-t", "-5"}, "-t must be positive"},
		{[]string{"-exp", "table3", "-no-such-flag"}, "flag provided but not defined"},
	} {
		code, out, stderr := tcsim(t, tc.args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr, tc.msg) {
			t.Errorf("%v: stderr %q lacks %q", tc.args, stderr, tc.msg)
		}
		if out != "" {
			t.Errorf("%v: a usage error printed tables:\n%s", tc.args, out)
		}
	}
}

// TestRunFailureExitsOne pins the failure contract: when cells fail (here
// every cell misses a 1ns deadline) the run still renders, names the
// failures on stderr and exits 1.
func TestRunFailureExitsOne(t *testing.T) {
	code, out, stderr := tcsim(t, "-exp", "table2", "-n", "20000", "-timeout", "1ns", "-quiet")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(out, "ERR") {
		t.Errorf("failed cells did not render ERR:\n%s", out)
	}
	if !strings.Contains(stderr, "table2/") {
		t.Errorf("stderr does not name the failed cells:\n%s", stderr)
	}
}

// TestTimingFusionOutputIdentity renders a fused timing experiment serially
// (one wide gang per workload), on eight workers (narrower gangs) and with
// telemetry attached: the tables must be byte-identical.
func TestTimingFusionOutputIdentity(t *testing.T) {
	base := []string{"-exp", "table7", "-t", "20000", "-quiet"}
	telem := filepath.Join(t.TempDir(), "t.json")
	var outs []string
	for _, extra := range [][]string{
		{"-parallel", "1"},
		{"-parallel", "8"},
		{"-parallel", "8", "-telemetry", telem},
	} {
		code, out, stderr := tcsim(t, append(base, extra...)...)
		if code != 0 {
			t.Fatalf("%v: exit %d; stderr:\n%s", extra, code, stderr)
		}
		outs = append(outs, out)
	}
	for i, out := range outs[1:] {
		if out != outs[0] {
			t.Errorf("run %d differs from the serial run", i+1)
		}
	}
	if fi, err := os.Stat(telem); err != nil || fi.Size() == 0 {
		t.Errorf("telemetry file not written: %v", err)
	}
}

// TestResumeAfterPartialRunMatchesFreshRun records table1 in a manifest,
// then resumes the whole suite from it: table1 is replayed, so every later
// experiment misses in the suite memo where a fresh run would have hit
// table1's simulations. The stdout must still equal a fresh run's.
func TestResumeAfterPartialRunMatchesFreshRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the suite twice")
	}
	budgets := []string{"-n", "200000", "-t", "100000", "-quiet"}
	manifest := filepath.Join(t.TempDir(), "m.json")
	run := func(args ...string) string {
		t.Helper()
		code, out, stderr := tcsim(t, append(args, budgets...)...)
		if code != 0 {
			t.Fatalf("%v: exit %d; stderr:\n%s", args, code, stderr)
		}
		return out
	}
	run("-exp", "table1", "-resume", manifest)
	resumed := run("-exp", "all", "-resume", manifest)
	if fresh := run("-exp", "all"); resumed != fresh {
		t.Error("-exp all resumed from a table1 manifest differs from a fresh -exp all")
	}
}
