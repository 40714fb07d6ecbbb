package main

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"scc/internal/bench"
)

// raceEnabled is set by race_on_test.go.
var raceEnabled bool

// TestCommittedFig10Regenerates holds results/README.md to its promise
// for Fig. 10: the command named there reproduces results/fig10.txt bit
// for bit. (The file carried the seed's flag-wait column for 19 PRs
// after the accounting behind it was fixed; nothing reran it.)
func TestCommittedFig10Regenerates(t *testing.T) {
	if raceEnabled {
		t.Skip("six 40-cycle runs at the paper's size take minutes under the race detector")
	}
	const file = "../../results/fig10.txt"
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run([]string{"-cycles", "40"}, &got); err != nil {
		t.Fatalf("gcmcapp -cycles 40: %v", err)
	}
	if d := bench.FirstDiff(want, got.Bytes()); d != "" {
		t.Fatalf("gcmcapp -cycles 40 no longer regenerates %s; first difference at %s", file, d)
	}
}

// TestBadFlagsAreUsageErrors: rejected values come back as bench.UsageError
// (exit code 2 in main), not as a run failure.
func TestBadFlagsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-cycles", "0"}, {"-particles", "-1"}, {"-no-such-flag"}} {
		var out bytes.Buffer
		if err := run(args, &out); !errors.As(err, new(bench.UsageError)) {
			t.Errorf("gcmcapp %v: err = %v, want a usage error", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("gcmcapp %v wrote to stdout: %q", args, out.String())
		}
	}
}
