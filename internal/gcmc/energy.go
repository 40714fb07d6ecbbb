package gcmc

import "math"

// This file implements the energy model: short-range Lennard-Jones plus
// real-space Ewald electrostatics (incrementally updatable, Algorithm 1
// line 5/8), and the reciprocal-space Ewald sum that must be fully
// recomputed after every move (Algorithm 2), with its 552-double
// Allreduce. Arithmetic cost is charged to the simulated core through
// the timing model from pair and atom *counts*: the modelled P54C always
// pays for the full recomputation, whatever the host skips.

// minImage returns the minimum-image distance vector component.
func minImage(d, l float64) float64 {
	if d > l/2 {
		return d - l
	}
	if d < -l/2 {
		return d + l
	}
	return d
}

// pairR2 returns the squared minimum-image distance of two atoms with
// the soft core applied, and whether it is inside the cutoff.
func (s *Simulation) pairR2(pi, ai, pj, aj int) (float64, bool) {
	na := s.P.AtomsPerParticle
	ri, rj := &s.pos[pi*na+ai], &s.pos[pj*na+aj]
	var r2 float64
	for d := 0; d < 3; d++ {
		dd := minImage(ri[d]-rj[d], s.P.BoxSide)
		r2 += dd * dd
	}
	rc := s.P.BoxSide / 2
	if r2 >= rc*rc {
		return 0, false
	}
	if r2 < 0.6 {
		r2 = 0.6 // soft core: keeps trial insertions finite
	}
	return r2, true
}

// pairEnergy computes the short-range interaction of two atoms: a
// truncated Lennard-Jones term plus the real-space (erfc-screened)
// Coulomb term of the Ewald decomposition.
func (s *Simulation) pairEnergy(pi, ai, pj, aj int) float64 {
	r2, ok := s.pairR2(pi, ai, pj, aj)
	if !ok {
		return 0
	}
	inv6 := 1 / (r2 * r2 * r2)
	lj := 4 * (inv6*inv6 - inv6)
	r := math.Sqrt(r2)
	coul := s.charges[ai] * s.charges[aj] * math.Erfc(s.P.Alpha*r) / r
	return lj + coul
}

// sumOverCores charges flops of arithmetic for a local partial sum and
// combines it across the cores with a one-element Allreduce ("one value
// per core", Sec. V-B).
func (s *Simulation) sumOverCores(local float64, flops int) float64 {
	s.core.ComputeCycles(s.core.Chip().Model.FlopCoreCycles * int64(flops))
	s.one[0] = local
	s.core.WriteF64s(s.oneSrc, s.one)
	s.comm.Allreduce(s.oneSrc, s.oneDst, 1)
	s.core.ReadF64s(s.oneDst, s.one)
	return s.one[0]
}

// shortEn computes the short-range energy between particle idx and all
// other particles (Algorithm 1's ShortEn). The pair loop over the rest
// of the system is split over the cores by ownership.
func (s *Simulation) shortEn(idx int) float64 {
	na := s.P.AtomsPerParticle
	local := 0.0
	pairs := 0
	for j := 0; j < s.n; j++ {
		if j == idx || !s.isLocal(j) {
			continue
		}
		for a := 0; a < na; a++ {
			for b := 0; b < na; b++ {
				local += s.pairEnergy(idx, a, j, b)
				pairs++
			}
		}
	}
	// ~40 flops per pair (distance, LJ, erfc-screened Coulomb).
	return s.sumOverCores(local, 40*pairs)
}

// localF returns F_local, this core's share of the structure factor
// (interleaved re/im over the k-vectors), and the number of local atoms
// it sums. The sum is memoised: fFrom holds the local atom positions
// fLocal was summed from, and while this core's atoms are bit for bit
// those - in a step at most one molecule on at most two cores is not -
// the previous vector is the answer. Otherwise *all* local atoms are
// summed again from +0 in the one order (molecule, atom, k-vector):
// patching only the changed rows would be cheaper still but rounds
// differently, and the physics pin holds every double. The memo
// validates itself against pos, so no move has to invalidate it;
// charges and k-vectors are fixed before the first call.
func (s *Simulation) localF() ([]float64, int) {
	na := s.P.AtomsPerParticle
	atoms, stale := 0, false
	for i := 0; i < s.n; i++ {
		if !s.isLocal(i) {
			continue
		}
		for _, r := range s.pos[i*na : (i+1)*na] {
			switch {
			case atoms == len(s.fFrom):
				s.fFrom = append(s.fFrom, r)
				stale = true
			case !sameBits(s.fFrom[atoms], r):
				s.fFrom[atoms] = r
				stale = true
			}
			atoms++
		}
	}
	if atoms < len(s.fFrom) {
		s.fFrom = s.fFrom[:atoms]
		stale = true
	}
	if !stale {
		return s.fLocal, atoms
	}
	f := s.fLocal
	clear(f)
	for m, r := range s.fFrom {
		q := s.charges[m%na]
		for k := range s.kvecs {
			kv := &s.kvecs[k]
			phase := kv.K[0]*r[0] + kv.K[1]*r[1] + kv.K[2]*r[2]
			sin, cos := math.Sincos(phase)
			f[2*k] += q * cos
			f[2*k+1] += q * sin
		}
	}
	return f, atoms
}

// sameBits compares two positions as bit patterns (-0 is not +0, a NaN
// equals itself): the memo must never stand in for a sum over different
// doubles.
func sameBits(a, b [3]float64) bool {
	return math.Float64bits(a[0]) == math.Float64bits(b[0]) &&
		math.Float64bits(a[1]) == math.Float64bits(b[1]) &&
		math.Float64bits(a[2]) == math.Float64bits(b[2])
}

// longEn computes the reciprocal-space Ewald energy (Algorithm 2): each
// core accumulates the structure factor over its local particles, the
// 276 complex coefficients are summed across cores with a 552-double
// Allreduce, and every core evaluates the energy from the total.
func (s *Simulation) longEn() float64 {
	m := s.core.Chip().Model
	nk := s.P.NumKVecs

	f, localAtoms := s.localF()
	// Cost per Algorithm 2's structure: per-axis phase tables need
	// 3*KMAX trig pairs per atom (lines 6-8); the k-vector accumulation
	// is ~8 flops per (k, atom) pair (lines 10-13).
	s.core.ComputeCycles(m.TrigCoreCycles * int64(3*s.P.KMax*localAtoms))
	s.core.ComputeCycles(m.FlopCoreCycles * int64(8*nk*localAtoms))

	// ALLREDUCE(F_local, F_tot, SUM) - the paper's 552-double call.
	s.core.WriteF64s(s.fSrc, f)
	s.comm.Allreduce(s.fSrc, s.fDst, 2*nk)
	s.allreduce++
	ftot := s.ftot
	s.core.ReadF64s(s.fDst, ftot)

	// energy += coeff(k)/vol * |F_tot[k]|^2 (doubled: half-space k set).
	vol := s.P.BoxSide * s.P.BoxSide * s.P.BoxSide
	energy := 0.0
	for k := 0; k < nk; k++ {
		re, im := ftot[2*k], ftot[2*k+1]
		energy += s.kvecs[k].Coeff * (re*re + im*im)
	}
	energy *= 2 * (2 * math.Pi) / vol
	s.core.ComputeCycles(m.FlopCoreCycles * int64(6*nk))
	return energy
}

// totalEnergy computes the full system energy from scratch (used for
// InitialEnergy and for the bookkeeping consistency checks in tests).
func (s *Simulation) totalEnergy() float64 {
	na := s.P.AtomsPerParticle
	local := 0.0
	pairs := 0
	for i := 0; i < s.n; i++ {
		if !s.isLocal(i) {
			continue
		}
		for j := 0; j < s.n; j++ {
			if j == i {
				continue
			}
			for a := 0; a < na; a++ {
				for b := 0; b < na; b++ {
					local += s.pairEnergy(i, a, j, b)
					pairs++
				}
			}
		}
	}
	local /= 2 // local sums count (i,j) once per side combined across cores
	return s.sumOverCores(local, 40*pairs) + s.longEn()
}

// EnergyDriftCheck recomputes the total energy from scratch and returns
// the difference to the incrementally tracked value (test hook).
func (s *Simulation) EnergyDriftCheck() float64 {
	return s.totalEnergy() - s.enOld
}
