package main

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"scc/internal/bench"
)

// TestCommittedFig6Regenerates reruns blocktable with its defaults and
// requires the output to match results/fig6.txt byte for byte, and the
// committed figure to carry the paper's imbalance ratios.
func TestCommittedFig6Regenerates(t *testing.T) {
	const file = "../../results/fig6.txt"
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(nil, &got); err != nil {
		t.Fatalf("blocktable: %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("blocktable no longer regenerates %s:\n%s", file, got.String())
	}
	for _, ratio := range []string{
		"48x11   ratio 1.0:1",
		"1x35 + 47x11   ratio 3.2:1", "24x12 + 24x11   ratio 1.1:1",
		"1x58 + 47x11   ratio 5.3:1", "47x12 + 1x11   ratio 1.1:1",
	} {
		if !strings.Contains(got.String(), ratio) {
			t.Errorf("%s lacks the paper's %q", file, ratio)
		}
	}
}

// TestBlocktableUsageErrors: each input that used to panic or be
// dropped silently is a usage error (exit 2 in main), reported with the
// message and the usage text, with nothing on stdout.
func TestBlocktableUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-p", "0"}, "-p must be between 1 and 10000"},
		{[]string{"-p", "10001"}, "-p must be between 1 and 10000, got 10001"},
		{[]string{"-p", "9223372036854775807"}, "got 9223372036854775807"},
		{[]string{"-n", "-5"}, `got "-5"`},
		{[]string{"-n", "552,abc"}, `got "abc"`},
		{[]string{"-no-such-flag"}, "not defined"},
	} {
		var out bytes.Buffer
		var err error
		stderr := captureStderr(t, func() { err = run(tc.args, &out) })
		if !errors.As(err, new(bench.UsageError)) || !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("blocktable %v: err = %v, want a usage error saying %q", tc.args, err, tc.msg)
		}
		if !strings.Contains(stderr, tc.msg) || !strings.Contains(stderr, "Usage of blocktable") {
			t.Errorf("blocktable %v: stderr lacks the message or the usage text:\n%s", tc.args, stderr)
		}
		if out.Len() != 0 {
			t.Errorf("blocktable %v wrote to stdout: %q", tc.args, out.String())
		}
	}
}

// TestBlocktableLargestMesh: -p at the bound still prints the table.
func TestBlocktableLargestMesh(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-p", "10000"}, &out); err != nil {
		t.Fatalf("blocktable -p 10000: %v", err)
	}
	if !strings.Contains(out.String(), "block sizes over 10000 cores") || !strings.Contains(out.String(), "575 elements:") {
		t.Errorf("blocktable -p 10000 printed:\n%s", out.String())
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
