package gcmc

import "math"

// Observables sampled along the Markov chain - the "thermodynamic
// properties like the internal energy or pressure of a gas or fluid"
// the paper's application exists to compute (Sec. V-B). Sampling happens
// after each cycle; averages are over the sampled portion of the chain.
type Observables struct {
	Samples int
	// MeanEnergy is the running average of the total energy.
	MeanEnergy float64
	// MeanN is the running average particle count (the grand-canonical
	// ensemble's central observable).
	MeanN float64
	// MeanDensity is MeanN divided by the box volume.
	MeanDensity float64
	// MeanVirialPressure is the pressure estimated from the virial of
	// the short-range forces plus the ideal-gas term:
	//   P = rho/beta + <W>/(3V)
	MeanVirialPressure float64

	sumE, sumN, sumW float64
}

// sample records the current configuration's contribution. W is the
// short-range virial (sum over pairs of r . F).
func (o *Observables) sample(energy float64, n int, virial, vol, beta float64) {
	o.Samples++
	o.sumE += energy
	o.sumN += float64(n)
	o.sumW += virial
	s := float64(o.Samples)
	o.MeanEnergy = o.sumE / s
	o.MeanN = o.sumN / s
	o.MeanDensity = o.MeanN / vol
	o.MeanVirialPressure = o.MeanDensity/beta + o.sumW/s/(3*vol)
}

// pairVirial computes r.F for one atom pair: for the Lennard-Jones part
// r.F = 24(2 inv12 - inv6); the screened-Coulomb contribution uses
// -r dU/dr of q_i q_j erfc(alpha r)/r.
func (s *Simulation) pairVirial(pi, ai, pj, aj int) float64 {
	r2, ok := s.pairR2(pi, ai, pj, aj)
	if !ok {
		return 0
	}
	inv6 := 1 / (r2 * r2 * r2)
	ljVirial := 24 * (2*inv6*inv6 - inv6)
	r := math.Sqrt(r2)
	qq := s.charges[ai] * s.charges[aj]
	a := s.P.Alpha
	// -r dU/dr for U = qq erfc(a r)/r:
	coulVirial := qq * (math.Erfc(a*r)/r + 2*a/math.SqrtPi*math.Exp(-a*a*r2))
	return ljVirial + coulVirial
}

// shortVirial sums the virial over this core's local particle pairs and
// combines it across cores with a one-element Allreduce (the same
// communication signature as the short-range energy).
func (s *Simulation) shortVirial() float64 {
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
					local += s.pairVirial(i, a, j, b)
					pairs++
				}
			}
		}
	}
	local /= 2
	return s.sumOverCores(local, 50*pairs)
}

// RunSampled is Run plus observable sampling every sampleEvery cycles
// (after a warm-up of warmup cycles). It returns the result and the
// collected observables.
func (s *Simulation) RunSampled(warmup, sampleEvery int) (Result, Observables) {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	var obs Observables
	vol := s.P.BoxSide * s.P.BoxSide * s.P.BoxSide
	res := s.run(func(cycle int) {
		if cycle >= warmup && (cycle-warmup)%sampleEvery == 0 {
			w := s.shortVirial()
			obs.sample(s.enOld, s.n, w, vol, s.P.Beta)
		}
	})
	return res, obs
}
