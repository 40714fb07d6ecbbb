package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scc/internal/bench"
	"scc/internal/core"
)

// TestOneModePerInvocation: selecting two modes, or setting a flag the
// selected mode never reads, is a usage error (exit status 2 in main)
// and nothing is simulated or written — no flag is silently ignored.
func TestOneModePerInvocation(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "x.out")
	for _, args := range [][]string{
		{"-summary", "-list-algos", "-csv", out},
		{"-tune", "-synth"},
		{"-scale", "-summary"},
		{"-metricsout", out, "-tune"}, // -metricsout implies the metrics mode
		{"-tracejson", out, "-list-algos"},
		{"-tune", "-csv", out},
		{"-tune", "-plot"},
		{"-tuneout", out},  // without -tune
		{"-synthout", out}, // without -synth
		{"-stack", "mpb"},  // without -metrics*
		{"-list-algos", "-mesh", "8x8x2"},
		{"-summary", "-op", "allreduce"},
		{"-summary", "-chips", "2"},
		{"-scale", "-parallel", "1"},
		{"-metrics", "-step", "2"},
		{"-op", "all", "-csv", out},                // -csv is one panel
		{"-op", "allreduce", "-csv", out, "-plot"}, // two renderings of one panel
		{"-no-such-flag"},
	} {
		var stdout bytes.Buffer
		if err := run(args, &stdout); !errors.As(err, new(bench.UsageError)) {
			t.Errorf("sccbench %v: err = %v, want a usage error", args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("sccbench %v wrote to stdout: %q", args, stdout.String())
		}
		if _, err := os.Stat(out); err == nil {
			t.Fatalf("sccbench %v wrote %s", args, out)
		}
	}
}

// TestModesRunWithTheirOwnFlags: each mode accepts the flags it reads,
// on inputs small enough for a unit test.
func TestModesRunWithTheirOwnFlags(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		args []string
		want string // substring of stdout
	}{
		{[]string{"-op", "allreduce", "-lo", "64", "-hi", "64", "-mesh", "2x2x2", "-parallel", "1"}, "Fig. 9 (allreduce)"},
		{[]string{"-op", "broadcast", "-lo", "64", "-hi", "64", "-mesh", "2x2x2", "-csv", filepath.Join(dir, "p.csv")}, "wrote "},
		{[]string{"-op", "allreduce", "-lo", "64", "-hi", "64", "-mesh", "2x2x2", "-metrics", "-stack", "lwnb", "-algo", "ring",
			"-metricsout", filepath.Join(dir, "m.json"), "-tracejson", filepath.Join(dir, "t.json")}, "instrumented run: op=allreduce"},
		{[]string{"-scale", "-mesh", "2x2x2"}, "scale run: 8 cores"},
		{[]string{"-summary", "-lo", "64", "-hi", "64", "-mesh", "2x2x2"}, "Per-collective average speedup"},
	} {
		var stdout bytes.Buffer
		if err := run(c.args, &stdout); err != nil {
			t.Errorf("sccbench %v: %v", c.args, err)
		}
		if !strings.Contains(stdout.String(), c.want) {
			t.Errorf("sccbench %v: stdout lacks %q:\n%s", c.args, c.want, stdout.String())
		}
	}
	for _, f := range []string{"p.csv", "m.json", "t.json"} {
		if st, err := os.Stat(filepath.Join(dir, f)); err != nil || st.Size() == 0 {
			t.Errorf("%s was not written: %v", f, err)
		}
	}
}

// TestListAlgosMatchesRegistry: -list-algos prints exactly the registry
// (run registers the committed synthesized schedules first): every op
// kind, every algorithm in registration order, with its description.
func TestListAlgosMatchesRegistry(t *testing.T) {
	var stdout bytes.Buffer
	if err := run([]string{"-list-algos"}, &stdout); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, k := range core.OpKinds() {
		fmt.Fprintf(&want, "%s:\n", k)
		names := core.AlgorithmNames(k)
		if len(names) < 3 {
			t.Fatalf("%s: only %v registered", k, names)
		}
		for _, name := range names {
			fmt.Fprintf(&want, "  %-10s %s\n", name, core.LookupAlgorithm(k, name).Describe())
		}
	}
	if stdout.String() != want.String() {
		t.Errorf("-list-algos:\n%s\nregistry:\n%s", stdout.String(), want.String())
	}
	for _, name := range []string{"ring", "hier", "synth:allreduce:48:552"} {
		if !strings.Contains(stdout.String(), "  "+name+" ") {
			t.Errorf("-list-algos lacks %q", name)
		}
	}
}
