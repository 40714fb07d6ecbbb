package synth

import (
	"encoding/json"
	"testing"
)

// FuzzParseTable holds the schedule-table parser to its contract on any
// input: it never panics, a rejection is a returned error with no table,
// and every accepted table survives a marshal/parse round trip with the
// same moves fingerprint on every entry (the recipes, not the moves, are
// what the JSON carries). The seed corpus holds the embedded table, a
// two-part mesh, the non-canonical "04x6x2", an unknown generator and a
// duplicate cell.
func FuzzParseTable(f *testing.F) {
	f.Add(defaultTableJSON)
	for _, entries := range []string{
		`{"op":"broadcast","np":8,"max_n":16,"gen":"near:f1","n":16,"mesh":"4x6"}`,
		`{"op":"broadcast","np":8,"max_n":16,"gen":"near:f1","n":16,"mesh":"04x6x2"}`,
		`{"op":"broadcast","np":8,"max_n":16,"gen":"zigzag","n":16,"mesh":"4x6x2"}`,
		`{"op":"reduce","np":8,"max_n":16,"gen":"near:f1","n":16,"mesh":"4x6x2"},` +
			`{"op":"reduce","np":8,"max_n":16,"gen":"beam","n":16,"mesh":"4x6x2"}`,
	} {
		f.Add([]byte(`{"transport":"t","entries":[` + entries + `]}`))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := ParseTable(data)
		if err != nil {
			if tab != nil {
				t.Fatalf("rejected with %v but returned a table", err)
			}
			return
		}
		if tab == nil {
			t.Fatal("accepted without a table")
		}
		out, err := json.Marshal(tab)
		if err != nil {
			t.Fatalf("accepted table does not marshal: %v", err)
		}
		again, err := ParseTable(out)
		if err != nil {
			t.Fatalf("re-marshalled table %s is rejected: %v", out, err)
		}
		if len(again.Entries) != len(tab.Entries) {
			t.Fatalf("round trip through %s: %d entries, want %d", out, len(again.Entries), len(tab.Entries))
		}
		for i, e := range tab.Entries {
			if a, b := movesFingerprint(e.Sched), movesFingerprint(again.Entries[i].Sched); a != b {
				t.Fatalf("entry %d (%s) rebuilds different moves after a round trip through %s", i, NameFor(e.Op, e.NP, e.MaxN), out)
			}
		}
	})
}
