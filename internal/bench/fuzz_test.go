package bench

import (
	"errors"
	"strings"
	"testing"
)

// FuzzParseMeshSpec holds the topology flags to their contract: no
// input panics or hangs, every rejection is a *SpecError, and every
// accepted geometry and chip count round-trip through MeshLabel — the
// label parses back to the same label. The committed corpus holds the
// paper chip, 8x8x2, 100x100 and the specs that once hung (4000x4000)
// or passed Validate on a wrapped product (100000x100000,
// 3037000500x3037000500).
func FuzzParseMeshSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec, chips string) {
		m, err := ParseMeshSpec(spec)
		k, kerr := ParseChips(chips)
		var se *SpecError
		for _, err := range []error{err, kerr} {
			if err != nil && !errors.As(err, &se) {
				t.Fatalf("ParseMeshSpec(%q)/ParseChips(%q): %v is not a *SpecError", spec, chips, err)
			}
		}
		if err != nil || kerr != nil {
			return
		}
		label := MeshLabel(m, k)
		mesh := label
		if k > 1 {
			var count string
			count, mesh, _ = strings.Cut(label, "x ")
			if k2, err := ParseChips(count); err != nil || k2 != k {
				t.Fatalf("label %q: chip count %q parses as %d, %v; want %d", label, count, k2, err, k)
			}
		}
		m2, err := ParseMeshSpec(mesh)
		if err != nil {
			t.Fatalf("label %q of %q: %v", label, spec, err)
		}
		if got := MeshLabel(m2, k); got != label || m2.NumCores() != m.NumCores() || m2.MPBBytesPerCore != m.MPBBytesPerCore {
			t.Fatalf("%q → %q → %q (%d → %d cores)", spec, label, got, m.NumCores(), m2.NumCores())
		}
	})
}
