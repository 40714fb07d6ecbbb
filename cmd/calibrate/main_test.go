package main

import (
	"bytes"
	"os"
	"testing"

	"scc/internal/bench"
)

// TestCommittedLadderRegenerates reruns `calibrate -quick` and requires
// its output to match results/ladder.txt byte for byte: the Sec. IV
// ladder is a committed result, so a change that moves one of its
// latencies must regenerate the file in the same change.
func TestCommittedLadderRegenerates(t *testing.T) {
	const file = "../../results/ladder.txt"
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run([]string{"-quick"}, &got); err != nil {
		t.Fatalf("calibrate -quick: %v", err)
	}
	if d := bench.FirstDiff(want, got.Bytes()); d != "" {
		t.Fatalf("calibrate -quick no longer regenerates %s; first difference at %s", file, d)
	}
}
