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

// runMainEnv, when set, makes the test binary run main() with its
// command-line arguments instead of the tests, so each case below
// exercises the real command in its own process.
const runMainEnv = "PAPERFIGS_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// paperfigs runs the command with args and returns its exit status,
// stdout and stderr.
func paperfigs(t *testing.T, args ...string) (int, string, string) {
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
	t.Fatalf("paperfigs %v: %v", args, err)
	return 0, "", ""
}

// TestUsageErrors checks that every malformed command line exits 2,
// names the problem on the first stderr line, prints the flag summary,
// and is rejected before profiling starts: no profile file is created.
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args   []string
		prefix string
	}{
		{[]string{"-fig", "7"}, "unknown figure "},
		{[]string{"-faults", "bogus"}, "faults: "},
		{[]string{"-speculate", "bogus"}, "spec: "},
		{[]string{"-workers", "-1"}, "-workers -1: "},
		{[]string{"-ip-budget", "-1"}, "-ip-budget -1: "},
	} {
		prof := filepath.Join(t.TempDir(), "cpu.pprof")
		code, _, stderr := paperfigs(t, append([]string{"-cpuprofile", prof}, c.args...)...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", c.args, code, stderr)
			continue
		}
		if first, _, _ := strings.Cut(stderr, "\n"); !strings.HasPrefix(first, c.prefix) {
			t.Errorf("%v: first stderr line %q, want prefix %q", c.args, first, c.prefix)
		}
		if !strings.Contains(stderr, "Usage of") {
			t.Errorf("%v: stderr lacks the flag summary:\n%s", c.args, stderr)
		}
		if _, err := os.Stat(prof); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%v: profile file exists after a usage error (stat: %v)", c.args, err)
		}
	}
}

// TestValidRun checks that a small well-formed run exits 0, prints its
// figure and writes the requested profile.
func TestValidRun(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.pprof")
	code, stdout, stderr := paperfigs(t, "-quick", "-fig", "5a", "-workers", "1", "-cpuprofile", prof)
	if code != 0 {
		t.Fatalf("exit %d, want 0 (stderr %q)", code, stderr)
	}
	if !strings.Contains(stdout, "Fig 5(a)") {
		t.Errorf("stdout lacks the Fig 5(a) table:\n%s", stdout)
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Errorf("cpu profile not written (stat: %v)", err)
	}
}
