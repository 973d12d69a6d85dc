package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv, when set, makes the test binary run main() with its
// command-line arguments instead of the tests, so each case below
// exercises the real command in its own process.
const runMainEnv = "BATCHSCHED_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// batchsched runs the command with args and returns its exit status,
// stdout and stderr.
func batchsched(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.String(), stderr.String()
	}
	t.Fatalf("batchsched %v: %v", args, err)
	return 0, "", ""
}

// TestUsageErrors checks that every malformed command line exits 2,
// names the problem once on the first stderr line and prints the flag
// summary.
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args   []string
		prefix string
	}{
		{[]string{"-faults", "seed=3,link=0.3"}, "faults: "},
		{[]string{"-speculate", "bogus"}, "spec: "},
		{[]string{"-app", "video"}, "unknown app "},
		{[]string{"-overlap", "total"}, "unknown overlap "},
		{[]string{"-platform", "nfs"}, "unknown platform "},
		{[]string{"-sched", "fifo"}, "unknown scheduler "},
		{[]string{"-tasks", "-5"}, "-tasks -5: "},
		{[]string{"-tasks", "0"}, "-tasks 0: "},
		{[]string{"-compute", "0"}, "-compute 0: "},
		{[]string{"-storage", "-1"}, "-storage -1: "},
		{[]string{"-disk-gb", "-1"}, "-disk-gb -1: "},
		{[]string{"-disk-gb", "NaN"}, "-disk-gb NaN: "},
		{[]string{"-disk-gb", "Inf"}, "-disk-gb +Inf: "},
		{[]string{"-disk-gb", "-Inf"}, "-disk-gb -Inf: "},
		{[]string{"-disk-gb", "1e300"}, "-disk-gb 1e+300: "},
		{[]string{"-disk-gb", "1e-12"}, "-disk-gb 1e-12: "},
	} {
		code, _, stderr := batchsched(t, c.args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", c.args, code, stderr)
			continue
		}
		first, _, _ := strings.Cut(stderr, "\n")
		if !strings.HasPrefix(first, c.prefix) || strings.Count(first, strings.TrimSpace(c.prefix)) != 1 {
			t.Errorf("%v: first stderr line %q, want it to start with %q exactly once", c.args, first, c.prefix)
		}
		if !strings.Contains(stderr, "Usage of") {
			t.Errorf("%v: stderr lacks the flag summary:\n%s", c.args, stderr)
		}
	}
}

// TestValidRun checks that a small well-formed run exits 0 and reports
// its schedule.
func TestValidRun(t *testing.T) {
	code, stdout, stderr := batchsched(t, "-tasks", "8")
	if code != 0 {
		t.Fatalf("exit %d, want 0 (stderr %q)", code, stderr)
	}
	for _, want := range []string{"scheduler:            BiPartition", "batch execution time:"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
}
