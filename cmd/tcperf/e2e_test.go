package main

// End-to-end crash-safety campaign against the real tcperf binary. These
// tests build cmd/tcperf, run it as a child process, and exercise the
// durability contract the package doc promises:
//
//   - graceful restart: upload, SIGTERM, exit 0, fsck clean, restart,
//     every acknowledged upload reads back byte-identical;
//   - hard crash: SIGKILL mid-upload-stream, restart (the server repairs
//     torn tails on open), every acknowledged upload survives and a
//     subsequent offline fsck is clean.
//
// CI runs these as the tcperf smoke job (go test -run TestE2E ./cmd/tcperf).

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/perfstore"
	"repro/internal/perfstore/client"
)

var binOnce struct {
	sync.Once
	path string
	err  error
}

// buildBinary compiles cmd/tcperf once per test run.
func buildBinary(t *testing.T) string {
	t.Helper()
	binOnce.Do(func() {
		dir, err := os.MkdirTemp("", "tcperf-e2e-*")
		if err != nil {
			binOnce.err = err
			return
		}
		bin := filepath.Join(dir, "tcperf")
		out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/tcperf").CombinedOutput()
		if err != nil {
			binOnce.err = fmt.Errorf("go build: %v\n%s", err, out)
			return
		}
		binOnce.path = bin
	})
	if binOnce.err != nil {
		t.Fatal(binOnce.err)
	}
	return binOnce.path
}

// serverProc is a running tcperf serve child.
type serverProc struct {
	cmd    *exec.Cmd
	addr   string
	stderr *bytes.Buffer
	mu     *sync.Mutex
	eof    chan struct{} // closed once stderr is read to EOF
}

func (p *serverProc) baseURL() string { return "http://" + p.addr }

// wait reaps the child after its stderr is drained. exec.Cmd.Wait closes
// the pipe, so reaping first could drop the last lines (the drain summary).
func (p *serverProc) wait() error {
	<-p.eof
	return p.cmd.Wait()
}

func (p *serverProc) stderrText() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stderr.String()
}

// startServer launches `tcperf serve` on a random port and waits for the
// "listening on" line the binary prints exactly for this purpose.
func startServer(t *testing.T, bin, dir string, extra ...string) *serverProc {
	t.Helper()
	args := append([]string{"serve", "-dir", dir, "-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	stderrPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &serverProc{cmd: cmd, stderr: &bytes.Buffer{}, mu: &sync.Mutex{}, eof: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(p.eof)
		sc := bufio.NewScanner(stderrPipe)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			fmt.Fprintln(p.stderr, line)
			p.mu.Unlock()
			if rest, ok := strings.CutPrefix(line, "tcperf: listening on "); ok {
				select {
				case addrCh <- strings.TrimSpace(rest):
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		p.addr = addr
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		p.wait()
		t.Fatalf("server never announced its address; stderr:\n%s", p.stderrText())
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			p.wait()
		}
	})
	return p
}

// stop signals the server and waits for it to exit, returning the exit code.
func (p *serverProc) stop(t *testing.T, sig syscall.Signal) int {
	t.Helper()
	if err := p.cmd.Process.Signal(sig); err != nil {
		t.Fatalf("signal %v: %v", sig, err)
	}
	done := make(chan error, 1)
	go func() { done <- p.wait() }()
	select {
	case <-done:
		return p.cmd.ProcessState.ExitCode()
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill()
		t.Fatalf("server did not exit after %v; stderr:\n%s", sig, p.stderrText())
		return -1
	}
}

// runFsckCmd runs `tcperf fsck -dir` and returns exit code + output.
func runFsckCmd(t *testing.T, bin, dir string, extra ...string) (int, string) {
	t.Helper()
	args := append([]string{"fsck", "-dir", dir}, extra...)
	out, err := exec.Command(bin, args...).CombinedOutput()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("fsck: %v\n%s", err, out)
	}
	return code, string(out)
}

func newE2EClient(t *testing.T, baseURL string) *client.Client {
	t.Helper()
	c, err := client.New(client.Config{
		BaseURL:     baseURL,
		MaxAttempts: 3,
		BaseBackoff: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// verifyAcked asserts every (id → body) pair reads back byte-identical.
func verifyAcked(t *testing.T, c *client.Client, acked *sync.Map) int {
	t.Helper()
	ctx := context.Background()
	n := 0
	acked.Range(func(k, v any) bool {
		got, err := c.Record(ctx, k.(string))
		if err != nil {
			t.Fatalf("acknowledged record %s lost: %v", k, err)
		}
		if !bytes.Equal(got, v.([]byte)) {
			t.Fatalf("acknowledged record %s: got %q want %q", k, got, v)
		}
		n++
		return true
	})
	return n
}

// TestE2EGracefulRestart is the CI smoke flow: start the server, run N
// concurrent uploads, query them back byte-identical, SIGTERM, restart,
// fsck clean, everything still present.
func TestE2EGracefulRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e skipped in -short mode")
	}
	bin := buildBinary(t)
	dir := t.TempDir()
	srv := startServer(t, bin, dir, "-shards", "4")

	c := newE2EClient(t, srv.baseURL())
	ctx := context.Background()

	const n = 40
	var acked sync.Map
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := []byte(fmt.Sprintf(`{"table2":{"wall_ms":%d.5}}`, 1000+i))
			res, err := c.Do(ctx, client.Upload{
				Kind: "benchjson", Machine: "e2e", Commit: fmt.Sprintf("c%03d", i),
				Experiment: "table2", Body: body,
			})
			if err != nil {
				t.Errorf("upload %d: %v", i, err)
				return
			}
			acked.Store(res.ID, body)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.Fatalf("uploads failed; server stderr:\n%s", srv.stderrText())
	}
	if got := verifyAcked(t, c, &acked); got != n {
		t.Fatalf("verified %d records before restart, want %d", got, n)
	}
	metas, err := c.Query(ctx, perfstore.Query{Kind: "benchjson", Machine: "e2e", Limit: n * 2})
	if err != nil || len(metas) != n {
		t.Fatalf("query: %d rows, err %v", len(metas), err)
	}

	// Graceful shutdown on SIGTERM: exit 0, drain summary printed.
	if code := srv.stop(t, syscall.SIGTERM); code != 0 {
		t.Fatalf("SIGTERM exit code %d; stderr:\n%s", code, srv.stderrText())
	}
	if !strings.Contains(srv.stderrText(), "drained") {
		t.Fatalf("no drain summary in stderr:\n%s", srv.stderrText())
	}

	// Offline fsck: clean store, all records accounted for.
	code, out := runFsckCmd(t, bin, dir)
	if code != 0 || !strings.Contains(out, "clean") {
		t.Fatalf("fsck after graceful stop: exit %d\n%s", code, out)
	}

	// Restart: everything acknowledged is still there, byte-identical.
	srv2 := startServer(t, bin, dir)
	c2 := newE2EClient(t, srv2.baseURL())
	if got := verifyAcked(t, c2, &acked); got != n {
		t.Fatalf("verified %d records after restart, want %d", got, n)
	}
	if code := srv2.stop(t, syscall.SIGTERM); code != 0 {
		t.Fatalf("second SIGTERM exit code %d", code)
	}
}

// TestE2EKillNineMidUpload SIGKILLs the server while uploads are in
// flight — no drain, no fsync-on-close, the worst crash short of power
// loss. The contract: every upload acknowledged before the kill survives
// the restart byte-identical, and after the restarted server repairs any
// torn tail, an offline fsck is clean.
func TestE2EKillNineMidUpload(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e skipped in -short mode")
	}
	bin := buildBinary(t)
	dir := t.TempDir()
	srv := startServer(t, bin, dir, "-shards", "4", "-queue", "64")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Hammer the server from many goroutines; record every ack we see.
	var (
		acked   sync.Map
		wg      sync.WaitGroup
		counter struct {
			sync.Mutex
			n int
		}
	)
	const writers = 16
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// One non-retrying client per writer: a retry that lands after
			// the kill would just hang the test, and ambiguous outcomes are
			// exactly what this test does NOT record as acked.
			c, err := client.New(client.Config{BaseURL: srv.baseURL(), MaxAttempts: 1})
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; ctx.Err() == nil; i++ {
				body := []byte(fmt.Sprintf(`{"crash":{"writer":%d,"seq":%d}}`, w, i))
				res, err := c.Do(ctx, client.Upload{
					Kind: "crashtest", Machine: fmt.Sprintf("w%02d", w),
					Commit: fmt.Sprintf("s%06d", i), Experiment: "kill9", Body: body,
				})
				if err != nil {
					continue // connection died (kill landed) or shed: not acked
				}
				acked.Store(res.ID, body)
				counter.Lock()
				counter.n++
				counter.Unlock()
			}
		}(w)
	}

	// Let acks accumulate, then kill -9 while the stream is hot.
	deadline := time.Now().Add(10 * time.Second)
	for {
		counter.Lock()
		n := counter.n
		counter.Unlock()
		if n >= 50 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d acks after 10s; stderr:\n%s", n, srv.stderrText())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := srv.cmd.Process.Kill(); err != nil { // SIGKILL
		t.Fatal(err)
	}
	srv.wait()
	cancel()
	wg.Wait()

	counter.Lock()
	ackedCount := counter.n
	counter.Unlock()
	t.Logf("kill -9 landed after %d acknowledged uploads", ackedCount)

	// A crash may leave a torn tail; that is damage fsck recognises as
	// repairable, never data loss. Exit 0 (clean) and exit 1 with only
	// torn-tail issues are both within contract here.
	code, out := runFsckCmd(t, bin, dir)
	if code == 2 {
		t.Fatalf("fsck errored after kill -9:\n%s", out)
	}
	if strings.Contains(out, "hash-mismatch") {
		t.Fatalf("fsck found real corruption after kill -9:\n%s", out)
	}

	// Restart: the server truncates any torn tail on open, then every
	// acknowledged upload must read back byte-identical.
	srv2 := startServer(t, bin, dir)
	c2 := newE2EClient(t, srv2.baseURL())
	got := verifyAcked(t, c2, &acked)
	if got < ackedCount {
		t.Fatalf("verified %d acked records after kill -9, want at least %d", got, ackedCount)
	}
	if code := srv2.stop(t, syscall.SIGTERM); code != 0 {
		t.Fatalf("post-crash restart SIGTERM exit code %d; stderr:\n%s", code, srv2.stderrText())
	}

	// After the restarted server repaired the store, offline fsck is clean.
	code, out = runFsckCmd(t, bin, dir)
	if code != 0 || !strings.Contains(out, "clean") {
		t.Fatalf("fsck after repair: exit %d\n%s", code, out)
	}
}
