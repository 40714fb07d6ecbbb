package core

import (
	"encoding/json"
	"slices"
	"testing"
)

// FuzzParseDecisionTable holds the decision-table parser to its
// contract on any input: it never panics, a rejection is a returned
// error (never a nil table without one, nor a table that fails its own
// Validate), and every accepted table survives a marshal/parse round
// trip with Lookup unchanged on an op x np x n grid that straddles
// every np and max_n the table names. The committed corpus holds the
// tuned default table, an empty table, null and an unknown op name.
func FuzzParseDecisionTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		table, err := ParseDecisionTable(data)
		if err != nil {
			if table != nil {
				t.Fatalf("rejected with %v but returned a table", err)
			}
			return
		}
		if table == nil {
			t.Fatal("accepted without a table")
		}
		if err := table.Validate(); err != nil {
			t.Fatalf("accepted table fails Validate: %v", err)
		}
		out, err := json.Marshal(table)
		if err != nil {
			t.Fatalf("accepted table does not marshal: %v", err)
		}
		again, err := ParseDecisionTable(out)
		if err != nil {
			t.Fatalf("re-marshalled table %s is rejected: %v", out, err)
		}
		nps := []int{0, 1, 2, 48, 1 << 20}
		ns := []int{0, 1, 552, 1 << 20}
		for _, e := range table.Entries {
			nps = append(nps, e.NP-1, e.NP)
			ns = append(ns, e.MaxN, e.MaxN+1)
		}
		slices.Sort(nps)
		slices.Sort(ns)
		nps, ns = slices.Compact(nps), slices.Compact(ns)
		for _, k := range OpKinds() {
			for _, np := range nps {
				for _, n := range ns {
					if a, b := table.Lookup(k, np, n), again.Lookup(k, np, n); a != b {
						t.Fatalf("Lookup(%s, np=%d, n=%d) = %q, %q after a round trip through %s", k, np, n, a, b, out)
					}
				}
			}
		}
	})
}
