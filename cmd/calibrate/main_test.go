package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
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
			t.Fatalf("calibrate -quick no longer regenerates %s; first difference at line %d:\n  now:       %q\n  committed: %q",
				file, i+1, g, w)
		}
	}
}
