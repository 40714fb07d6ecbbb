package gcmc

import (
	"math"
	"sort"
	"sync"
)

// KVec is one reciprocal-space vector of the Ewald sum.
type KVec struct {
	N     [3]int     // integer lattice coordinates
	K     [3]float64 // 2*pi/L * N
	K2    float64    // |K|^2
	Coeff float64    // exp(-K2/(4 alpha^2)) / K2
}

// makeKVectors generates the count lowest-|k| reciprocal vectors of a
// cubic box with side boxSide, taking one representative per +/-k pair
// (F(-k) is the conjugate of F(k), so half-space suffices - this is why
// the paper's 276 complex coefficients cover the whole sum). kmax bounds
// the per-axis integer search; it panics if the search space is too
// small for count vectors. The result is a right-sized copy: the
// candidate array (2,601 entries at kmax 8) is garbage on return.
func makeKVectors(boxSide, alpha float64, kmax, count int) []KVec {
	twoPiL := 2 * math.Pi / boxSide
	var vecs []KVec
	for nx := 0; nx <= kmax; nx++ {
		for ny := -kmax; ny <= kmax; ny++ {
			for nz := -kmax; nz <= kmax; nz++ {
				// Half space: skip -k twins and the zero vector.
				if nx == 0 && (ny < 0 || (ny == 0 && nz <= 0)) {
					continue
				}
				k := [3]float64{twoPiL * float64(nx), twoPiL * float64(ny), twoPiL * float64(nz)}
				k2 := k[0]*k[0] + k[1]*k[1] + k[2]*k[2]
				vecs = append(vecs, KVec{
					N:     [3]int{nx, ny, nz},
					K:     k,
					K2:    k2,
					Coeff: math.Exp(-k2/(4*alpha*alpha)) / k2,
				})
			}
		}
	}
	if len(vecs) < count {
		panic("gcmc: kmax too small for requested k-vector count")
	}
	sort.Slice(vecs, func(i, j int) bool {
		a, b := vecs[i], vecs[j]
		if a.K2 != b.K2 {
			return a.K2 < b.K2
		}
		if a.N[0] != b.N[0] {
			return a.N[0] < b.N[0]
		}
		if a.N[1] != b.N[1] {
			return a.N[1] < b.N[1]
		}
		return a.N[2] < b.N[2]
	})
	out := make([]KVec, count)
	copy(out, vecs)
	return out
}

// kTable memoises the last k-vector table built. The 48 cores of a chip
// - and the chips bench.Runner's workers build side by side - all ask
// for the same (boxSide, alpha, kmax, count), so one entry is the whole
// working set: a different key replaces it, nothing accumulates, and a
// table lives as long as a Simulation or the memo refers to it.
var kTable struct {
	sync.Mutex
	boxSide, alpha float64
	kmax           int
	vecs           []KVec
}

// sharedKVectors returns makeKVectors' table for the parameters, built
// once and shared: callers must not write to it.
func sharedKVectors(boxSide, alpha float64, kmax, count int) []KVec {
	kTable.Lock()
	defer kTable.Unlock()
	if len(kTable.vecs) != count || kTable.boxSide != boxSide || kTable.alpha != alpha || kTable.kmax != kmax {
		kTable.vecs = makeKVectors(boxSide, alpha, kmax, count)
		kTable.boxSide, kTable.alpha, kTable.kmax = boxSide, alpha, kmax
	}
	return kTable.vecs
}
