package main

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"scc/internal/bench"
)

// TestMeshlatPrintsBothTables: a valid core prints the read table with
// and without the erratum workaround, nearest tile first.
func TestMeshlatPrintsBothTables(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-from", "47"}, &out); err != nil {
		t.Fatalf("meshlat -from 47: %v", err)
	}
	for _, want := range []string{
		"one-line MPB read latency from core 47 (erratum workaround active):",
		"one-line MPB read latency from core 47 (hardware bug fixed):",
		"tileY=3 ",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("meshlat -from 47 lacks %q:\n%s", want, out.String())
		}
	}
}

// TestMeshlatUsageErrors: a core outside the chip, which used to panic
// with an index out of range, is a usage error (exit 2 in main),
// reported with the message and the usage text, with nothing on stdout.
func TestMeshlatUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-from", "99"}, "-from must be a core in [0,48), got 99"},
		{[]string{"-from", "48"}, "got 48"},
		{[]string{"-from", "-1"}, "got -1"},
		{[]string{"-from", "x"}, "invalid value"},
	} {
		var out bytes.Buffer
		var err error
		stderr := captureStderr(t, func() { err = run(tc.args, &out) })
		if !errors.As(err, new(bench.UsageError)) || !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("meshlat %v: err = %v, want a usage error saying %q", tc.args, err, tc.msg)
		}
		if !strings.Contains(stderr, tc.msg) || !strings.Contains(stderr, "Usage of meshlat") {
			t.Errorf("meshlat %v: stderr lacks the message or the usage text:\n%s", tc.args, stderr)
		}
		if out.Len() != 0 {
			t.Errorf("meshlat %v wrote to stdout: %q", tc.args, out.String())
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
