package main

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"scc/internal/bench"
)

// TestCommittedResultsRegenerate holds results/README.md to its promise
// for the two evidence files of the hardened protocol: the commands
// named there reproduce them bit for bit.
func TestCommittedResultsRegenerate(t *testing.T) {
	for file, args := range map[string][]string{
		"../../results/fig_r1.txt": nil,
		"../../results/fig_r2.txt": {"-selfheal"},
	} {
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := run(args, &got); err != nil {
			t.Fatalf("faultbench %v: %v", args, err)
		}
		if got.String() == string(want) {
			continue
		}
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("faultbench %v no longer regenerates %s; first difference at line %d:\n  now:       %q\n  committed: %q",
					args, file, i+1, g, w)
			}
		}
	}
}

// TestBadFlagsAreUsageErrors: rejected values come back as bench.UsageError
// (exit code 2 in main), not as a run failure.
func TestBadFlagsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "0"}, {"-faults", "1,x"}, {"-chips", "2"}, {"-mesh", "bogus"}, {"-algo", "nope"}, {"-no-such-flag"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); !errors.As(err, new(bench.UsageError)) {
			t.Errorf("faultbench %v: err = %v, want a usage error", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("faultbench %v wrote to stdout: %q", args, out.String())
		}
	}
}
