package main

import (
	"bytes"
	"errors"
	"os"
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
		if d := bench.FirstDiff(want, got.Bytes()); d != "" {
			t.Fatalf("faultbench %v no longer regenerates %s; first difference at %s", args, file, d)
		}
	}
}

// TestBadFlagsAreUsageErrors: rejected values come back as bench.UsageError
// (exit code 2 in main), not as a run failure.
func TestBadFlagsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "0"}, {"-faults", "1,x"}, {"-chips", "2"}, {"-mesh", "bogus"}, {"-algo", "nope"}, {"-algo", "hier"}, {"-no-such-flag"},
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
