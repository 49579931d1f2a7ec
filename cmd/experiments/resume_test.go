package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain re-execs the test binary as the experiments command when the
// driver env var is set: subprocess tests exercise the real main() — flag
// parsing, journal setup, signal handling, exit codes — without a separate
// build step.
func TestMain(m *testing.M) {
	if os.Getenv("IPEX_EXPERIMENTS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs this test binary as the experiments command and returns its
// stdout, stderr, and exit code.
func runMain(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "IPEX_EXPERIMENTS_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &ee):
		code = ee.ExitCode()
	default:
		t.Fatalf("running %v: %v", args, err)
	}
	return out.String(), errb.String(), code
}

// TestInterruptResumeSubprocess drives the full command-line round trip with
// a deterministic interrupt: run to a golden, interrupt after 2 cells with a
// journal (exit 130), resume, and require byte-identical stdout.
func TestInterruptResumeSubprocess(t *testing.T) {
	base := []string{"-exp", "fig11", "-scale", "0.02", "-apps", "fft,gsme", "-json"}
	golden, _, code := runMain(t, base...)
	if code != 0 {
		t.Fatalf("golden run exited %d", code)
	}

	j := filepath.Join(t.TempDir(), "sweep.jsonl")
	_, errOut, code := runMain(t, append(base, "-journal", j, "-interrupt-after", "2")...)
	if code != 130 {
		t.Fatalf("interrupted run exited %d, want 130\nstderr:\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "resumable") || !strings.Contains(errOut, "-resume") {
		t.Fatalf("interrupted run did not point at -resume:\n%s", errOut)
	}

	out, errOut, code := runMain(t, append(base, "-journal", j, "-resume")...)
	if code != 0 {
		t.Fatalf("resume exited %d\nstderr:\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "2 journaled cell(s) will replay") {
		t.Fatalf("resume did not announce the replay:\n%s", errOut)
	}
	if out != golden {
		t.Fatalf("resumed stdout differs from uninterrupted golden:\n got %s\nwant %s", out, golden)
	}
}

// TestSIGINTGracefulDrain sends a real SIGINT to a running sweep: the
// process must drain (exit 130, journal intact) and a -resume run must be
// byte-identical to an uninterrupted golden.
func TestSIGINTGracefulDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess SIGINT test needs a multi-second sweep")
	}
	base := []string{"-exp", "fig11", "-scale", "10", "-apps", "fft,gsme", "-parallelism", "1", "-json"}
	golden, _, code := runMain(t, base...)
	if code != 0 {
		t.Fatalf("golden run exited %d", code)
	}

	j := filepath.Join(t.TempDir(), "sweep.jsonl")
	cmd := exec.Command(os.Args[0], append(base, "-journal", j)...)
	cmd.Env = append(os.Environ(), "IPEX_EXPERIMENTS_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Wait until at least one cell entry landed in the journal (header line
	// plus one cell line), then interrupt mid-sweep.
	deadline := time.Now().Add(30 * time.Second)
	for {
		b, _ := os.ReadFile(j)
		if bytes.Count(b, []byte("\n")) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("no cell journaled within 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 130 {
		t.Fatalf("SIGINT run: err=%v\nstderr:\n%s", err, errb.String())
	}
	if s := errb.String(); !strings.Contains(s, "interrupt received") || !strings.Contains(s, "resumable") {
		t.Fatalf("drain messages missing from stderr:\n%s", s)
	}

	resumed, errOut, code := runMain(t, append(base, "-journal", j, "-resume")...)
	if code != 0 {
		t.Fatalf("resume exited %d\nstderr:\n%s", code, errOut)
	}
	if resumed != golden {
		t.Fatalf("resume after SIGINT differs from golden:\n got %s\nwant %s", resumed, golden)
	}
}

// TestRemoteFlagsRejected pins that an out-of-range fleet flag dies with
// one clear line instead of running with a silently substituted value
// (the client would read a zero timeout as its 15 s default).
func TestRemoteFlagsRejected(t *testing.T) {
	for _, tc := range []struct{ flag, value, want string }{
		{"-remote-timeout", "0", "-remote-timeout must be > 0, got 0s"},
		{"-remote-timeout", "-1s", "-remote-timeout must be > 0, got -1s"},
		{"-hedge-after", "-1s", "-hedge-after must be >= 0, got -1s"},
	} {
		t.Run(tc.flag+"="+tc.value, func(t *testing.T) {
			out, errOut, code := runMain(t, "-exp", "fig11", "-scale", "0.02",
				"-servers", "http://127.0.0.1:1", tc.flag, tc.value)
			if code != 1 || out != "" {
				t.Fatalf("exited %d with stdout %q, want 1 and nothing", code, out)
			}
			if errOut != "experiments: "+tc.want+"\n" {
				t.Fatalf("stderr = %q, want the one-line %q", errOut, tc.want)
			}
		})
	}
}
