package sccsim_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"scc/internal/core"
)

// The doc-drift gate: the README and DESIGN.md are promoted to a spec,
// so the things a user can actually name — registered collective
// algorithms and public façade options — must appear in them. A PR that
// adds an algorithm or a With* option without documenting it fails
// here, not in review.
//
// This test deliberately reads only the committed registry state of the
// library (it never calls synth.RegisterDefaults: registration is a
// main()-time decision, and the scheduler-equivalence goldens pin the
// library's registry digest).

// docsUnion returns README.md + DESIGN.md as one searchable string.
func docsUnion(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	for _, name := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("doc spec file missing: %v", err)
		}
		sb.Write(data)
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestDocsMentionEveryRegisteredAlgorithm(t *testing.T) {
	docs := docsUnion(t)
	checked := 0
	for _, k := range core.OpKinds() {
		for _, name := range core.AlgorithmNames(k) {
			checked++
			if !strings.Contains(docs, name) {
				t.Errorf("algorithm %q (op %s) is registered but appears in neither README.md nor DESIGN.md", name, k)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no algorithms registered — the registry enumeration is broken")
	}
	// The synthesized schedules register at main()-time under a computed
	// name; the docs must still teach the pattern.
	if !strings.Contains(docs, "synth:<op>:<np>:<bucket>") {
		t.Error(`the synthesized-algorithm naming pattern "synth:<op>:<np>:<bucket>" is documented in neither README.md nor DESIGN.md`)
	}
}

func TestDocsMentionEveryFacadeOption(t *testing.T) {
	docs := docsUnion(t)
	optRE := regexp.MustCompile(`(?m)^func (With[A-Za-z0-9]+)\(`)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range optRE.FindAllStringSubmatch(string(src), -1) {
			opt := m[1]
			checked++
			if !strings.Contains(docs, opt) {
				t.Errorf("façade option %s (in %s) appears in neither README.md nor DESIGN.md", opt, f)
			}
		}
	}
	if checked < 10 {
		t.Fatalf("found only %d With* options — the source scan is broken", checked)
	}
}

// docPathRE matches a repository path the docs name: anything under
// internal/ or cmd/ (a package directory, or a file with one of the
// listed extensions), and example programs' .go files. A dotted Go
// identifier after a package path (internal/bench.Tune) is not part of
// the path.
var docPathRE = regexp.MustCompile(`(?:^|[^\w/.-])((?:internal|cmd)/[\w/-]*\w(?:\.(?:go|txt|json|csv|md|sh))?|examples/[\w/-]+\.go)`)

// TestDocsNameOnlyFilesThatExist: a path in the prose must lead to
// something. Deleting a file without rewriting the docs that describe it
// fails here.
func TestDocsNameOnlyFilesThatExist(t *testing.T) {
	checked := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docPathRE.FindAllStringSubmatch(string(data), -1) {
			checked++
			if _, err := os.Stat(m[1]); err != nil {
				t.Errorf("%s names %s, which does not exist", doc, m[1])
			}
		}
	}
	if checked < 50 {
		t.Fatalf("found only %d paths in the docs — the scan is broken", checked)
	}
}

// TestNonTestLineBudget gates ROADMAP aim 2's tracked number: the lines
// (newline count, comments and blanks included — the rule PR 19 counted
// with, `wc -l`) of every .go file that is neither a test nor under
// benchmarks/. The count may not exceed testdata/line_budget.txt; a PR
// that brings it down commits the lower number, a PR that needs more
// raises the budget in the open, where a reviewer sees it.
func TestNonTestLineBudget(t *testing.T) {
	raw, err := os.ReadFile("testdata/line_budget.txt")
	if err != nil {
		t.Fatal(err)
	}
	budget, err := strconv.Atoi(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("testdata/line_budget.txt: %v", err)
	}
	total, files := 0, 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmarks" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir // .git, .bench_build, .claude
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		total += bytes.Count(src, []byte("\n"))
		files++
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("found only %d non-test .go files — the source scan is broken", files)
	}
	if total > budget {
		t.Errorf("non-test Go outside benchmarks/: %d lines in %d files, budget %d (testdata/line_budget.txt)", total, files, budget)
	}
	t.Logf("non-test Go outside benchmarks/: %d lines in %d files (budget %d)", total, files, budget)
}
