package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scc/internal/bench"
)

// TestTimelineRendersBothSchemes: a short run renders one row per
// recorded core for both schemes and writes a Chrome trace that parses.
func TestTimelineRendersBothSchemes(t *testing.T) {
	chrome := filepath.Join(t.TempDir(), "timeline.json")
	var out bytes.Buffer
	if err := run([]string{"-rounds", "2", "-n", "16", "-cores", "3", "-chrome", chrome}, &out); err != nil {
		t.Fatalf("timeline: %v", err)
	}
	s := out.String()
	for _, want := range []string{
		"=== blocking ring exchange (2 rounds of 16 doubles) ===",
		"=== lightweight non-blocking ring exchange (2 rounds of 16 doubles) ===",
		"core2 ", "wrote " + chrome,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output lacks %q:\n%s", want, s)
		}
	}
	if rows := strings.Count(s, "\ncore "); rows != 6 {
		t.Errorf("rendered %d core rows, want 3 per scheme:\n%s", rows, s)
	}
	raw, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(raw) {
		t.Errorf("%s is not JSON", chrome)
	}
}

// TestTimelineUsageErrors: a negative vector length (a panic inside a
// simulated core), a round count that rendered an empty run, a core
// count outside the chip and a width the renderer would silently raise
// are usage errors (exit 2 in main), reported
// with the message and the usage text, with nothing on stdout.
func TestTimelineUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-n", "-1"}, "-n must be non-negative, got -1"},
		{[]string{"-rounds", "-1"}, "-rounds must be at least 1, got -1"},
		{[]string{"-rounds", "0"}, "got 0"},
		{[]string{"-cores", "0"}, "-cores must be in [1,48], got 0"},
		{[]string{"-cores", "49"}, "got 49"},
		{[]string{"-width", "5"}, "-width must be at least 10, got 5"},
	} {
		var out bytes.Buffer
		var err error
		stderr := captureStderr(t, func() { err = run(tc.args, &out) })
		if !errors.As(err, new(bench.UsageError)) || !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("timeline %v: err = %v, want a usage error saying %q", tc.args, err, tc.msg)
		}
		if !strings.Contains(stderr, tc.msg) || !strings.Contains(stderr, "Usage of timeline") {
			t.Errorf("timeline %v: stderr lacks the message or the usage text:\n%s", tc.args, stderr)
		}
		if out.Len() != 0 {
			t.Errorf("timeline %v wrote to stdout: %q", tc.args, out.String())
		}
	}
}

// captureStderr returns what fn writes to os.Stderr.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	fn()
	os.Stderr = saved
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
