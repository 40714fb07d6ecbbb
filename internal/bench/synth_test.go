package bench

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"scc/internal/core"
	"scc/internal/synth"
	"scc/internal/timing"
)

// The synthesis acceptance gate: on the paper's 48-core chip, at least
// one searched schedule must strictly beat every hand-written algorithm
// on its cell — otherwise the synthesizer is decorative. The exact
// cells that win are reported in EXPERIMENTS.md's Pareto tables; this
// test pins only the existence of a winner, not the cell, so unrelated
// tuning of the hand algorithms does not spuriously fail it. The same
// sweep must emit the committed 48-core rows byte for byte, so the
// committed table cannot go stale.
func TestSynthesizeBeatsHandAlgorithmsSomewhere(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	model := timing.Default()
	sp := SynthSpecFor(model.NumCores())
	table, cells, err := Synthesize(NewRunner(0), model, sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Entries) != len(cells) {
		t.Fatalf("table has %d entries for %d cells", len(table.Entries), len(cells))
	}
	won := false
	for _, cell := range cells {
		t.Logf("%s np=%d max_n=%d: best=%s hand winner=%s beatsAll=%v",
			cell.Op, cell.NP, cell.MaxN, cell.Cands[cell.Best].Gen, cell.Winner, cell.BeatsAll)
		for _, c := range cell.Cands {
			t.Logf("  cand %-8s steps=%d moves=%d lat=%d", c.Gen, c.Steps, c.Moves, c.Latency)
		}
		for name, lat := range cell.Latency {
			t.Logf("  hand %-10s lat=%d", name, lat)
		}
		if cell.BeatsAll {
			won = true
		}
	}
	if !won {
		t.Fatal("no synthesized schedule beats the hand-written algorithms on any cell")
	}

	committed, err := synth.DefaultTable()
	if err != nil {
		t.Fatal(err)
	}
	var want []synth.TableEntry
	for _, e := range committed.Entries {
		if e.NP == model.NumCores() {
			want = append(want, e)
		}
	}
	gotRows, err := json.MarshalIndent(table.Entries, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	wantRows, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotRows, wantRows) {
		t.Fatalf("the sweep emits rows\n%s\nbut synth_default.json commits\n%s", gotRows, wantRows)
	}
	for i, e := range table.Entries {
		if !reflect.DeepEqual(e.Sched.Steps, want[i].Sched.Steps) {
			t.Errorf("%s: the swept winner's moves differ from the committed recipe's",
				synth.NameFor(e.Op, e.NP, e.MaxN))
		}
	}
}

// The emitted table must survive the committed JSON form: its rows
// rebuild the very schedules the sweep measured, here on a small
// non-default mesh. The sweep must NOT register anything (the registry
// is process-global and other tests in this binary enumerate it).
func TestSynthesizeTableRoundTrips(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	model := timing.Topology(2, 2, 2)
	table, _, err := Synthesize(NewRunner(0), model, SynthSpecFor(model.NumCores()))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range core.OpKinds() {
		for _, name := range core.AlgorithmNames(k) {
			if strings.HasPrefix(name, "synth:") {
				t.Fatalf("Synthesize registered %q into the global registry", name)
			}
		}
	}
	data, err := json.Marshal(table)
	if err != nil {
		t.Fatal(err)
	}
	back, err := synth.ParseTable(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Entries) != len(table.Entries) {
		t.Fatalf("round trip lost entries: %d != %d", len(back.Entries), len(table.Entries))
	}
	for i, e := range back.Entries {
		if !reflect.DeepEqual(e.Sched.Steps, table.Entries[i].Sched.Steps) {
			t.Errorf("%s: the rebuilt schedule differs from the measured one", synth.NameFor(e.Op, e.NP, e.MaxN))
		}
	}
}

// A model the table's mesh field cannot name would make its rows
// unrebuildable, so the sweep refuses it.
func TestSynthesizeRejectsModelOffItsMesh(t *testing.T) {
	model := timing.Topology(2, 2, 2)
	model.HardwareBugFixed = true
	if _, _, err := Synthesize(NewRunner(1), model, SynthSpecFor(model.NumCores())); err == nil {
		t.Fatal("Synthesize accepted a model its rows cannot name")
	}
}
