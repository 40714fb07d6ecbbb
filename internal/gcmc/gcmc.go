// Package gcmc implements the paper's scientific application: a
// grand-canonical Monte Carlo (GCMC) simulation of a charged
// Lennard-Jones fluid (Adams [14]), parallelized over the SCC's cores
// exactly like the paper's Algorithms 1 and 2:
//
//   - particles (molecules of several atoms) are distributed over the
//     cores; each core evaluates the energy contribution of its local
//     particle set;
//   - the short-range energy is summed with a one-element Allreduce;
//   - the long-range (Ewald reciprocal-space) energy requires a full
//     recomputation after every move and an Allreduce over KMAXVECS=276
//     complex Fourier coefficients, i.e. a 552-double vector - the call
//     that dominates the application's communication time and that the
//     paper's optimizations target;
//   - the accepted/rejected update is broadcast from the owning core
//     (Algorithm 1, line 13).
//
// The physics runs for real (positions, Ewald sums, Metropolis
// acceptance); the simulated P54C time for the arithmetic is charged
// through the timing model's flop/trig costs.
package gcmc

import (
	"fmt"
	"math"
	"math/rand"

	"scc/internal/scc"
	"scc/internal/simtime"
)

// Collectives is the communication interface the application needs; it
// is implemented by adapters over the optimized collectives (package
// core) and over RCKMPI (package rckmpi) - see stacks.go.
type Collectives interface {
	// Allreduce sums n float64 values element-wise across all cores.
	Allreduce(src, dst scc.Addr, n int)
	// Broadcast distributes n float64 values from root to all cores.
	Broadcast(root int, addr scc.Addr, n int)
	// Barrier synchronizes all cores.
	Barrier()
}

// Params configures a GCMC run. DefaultParams matches the paper's
// communication signature (276 complex coefficients -> 552 doubles).
type Params struct {
	NumParticles     int     // initial particle (molecule) count
	AtomsPerParticle int     // atoms per rigid molecule
	BoxSide          float64 // cubic box side L (reduced units)
	Beta             float64 // inverse temperature 1/kT
	AdamsB           float64 // Adams B parameter for insert/delete
	Alpha            float64 // Ewald splitting parameter
	KMax             int     // per-axis reciprocal-space cutoff
	NumKVecs         int     // KMAXVECS; the paper's value is 276
	Cycles           int     // GCMC moves to attempt
	MaxDisplacement  float64 // translation move amplitude
	Seed             int64   // RNG seed (replicated across cores)
}

// DefaultParams returns a configuration matching the paper's workload:
// 276 k-vectors (552-double Allreduce), 3-atom molecules, and a particle
// count that gives the application its compute/communication balance
// (~60% of runtime in LongEn under the blocking stack, Sec. V-B).
func DefaultParams() Params {
	return Params{
		NumParticles:     720,
		AtomsPerParticle: 3,
		BoxSide:          12.0,
		Beta:             1.2,
		AdamsB:           3.0,
		Alpha:            0.45,
		KMax:             8,
		NumKVecs:         276,
		Cycles:           100,
		MaxDisplacement:  0.35,
		Seed:             1,
	}
}

// moveKind enumerates GCMC move types (Algorithm 1, PickRandomAction).
type moveKind int

const (
	moveTranslate moveKind = iota
	moveRotate
	moveInsert
	moveDelete
	numMoveKinds
)

func (k moveKind) String() string {
	switch k {
	case moveTranslate:
		return "translate"
	case moveRotate:
		return "rotate"
	case moveInsert:
		return "insert"
	case moveDelete:
		return "delete"
	}
	return fmt.Sprintf("moveKind(%d)", int(k))
}

// Stats accumulates move outcomes.
type Stats struct {
	Attempted, Accepted              int
	Translations, Rotations          int
	Insertions, Deletions            int
	AcceptedInserts, AcceptedDeletes int
}

// Result summarizes one core's view of a finished run.
type Result struct {
	FinalEnergy   float64
	FinalN        int
	Stats         Stats
	WallTime      simtime.Duration // virtual time for the whole run
	ComputeTime   simtime.Duration // charged arithmetic
	FlagWaitTime  simtime.Duration // time blocked on MPB flags
	CommAllreduce int              // number of 552-double Allreduce calls
}

// Simulation is the per-core GCMC state. All cores hold the full
// (replicated) configuration; the work split happens inside the energy
// evaluation, which only loops over the core's local particles.
type Simulation struct {
	P     Params
	core  *scc.Core
	comm  Collectives
	rank  int
	procs int

	// The configuration: n rigid molecules, each a row of mol (its
	// center, then the na atom offsets from it), and the wrapped position
	// of every atom in pos[i*na+a]. pos is derived state kept next to
	// what it derives from: setMol and dropLast are the only writers of
	// all three, so the energy kernels read pos and never wrap.
	n       int
	mol     [][3]float64
	pos     [][3]float64
	charges []float64
	kvecs   []KVec // shared and read-only, see sharedKVectors
	enOld   float64

	rng *rand.Rand // replicated stream: same decisions on every core

	// Private-memory staging for the collectives.
	fSrc, fDst     scc.Addr
	oneSrc, oneDst scc.Addr
	bcastBuf       scc.Addr

	// Host-side scratch, sized once in New.
	trial, saved     [][3]float64 // one molecule row each: the move being built, SaveCurrentConfig
	one, bcast, ftot []float64    // what oneSrc/oneDst, bcastBuf and fDst are staged through

	// longEn's memo: F_local as last summed, and the local atom positions
	// it was summed from (see localF).
	fLocal []float64
	fFrom  [][3]float64

	stats     Stats
	allreduce int
}

// New builds the simulation state for one core. nprocs is the
// communicator size; every core must use identical Params.
func New(c *scc.Core, comm Collectives, nprocs int, p Params) *Simulation {
	if p.NumKVecs <= 0 || p.AtomsPerParticle <= 0 || p.NumParticles < 0 {
		panic("gcmc: invalid parameters")
	}
	s := &Simulation{
		P:     p,
		core:  c,
		comm:  comm,
		rank:  c.ID,
		procs: nprocs,
		rng:   rand.New(rand.NewSource(p.Seed)),
		kvecs: sharedKVectors(p.BoxSide, p.Alpha, p.KMax, p.NumKVecs),

		trial:  make([][3]float64, 1+p.AtomsPerParticle),
		saved:  make([][3]float64, 1+p.AtomsPerParticle),
		one:    make([]float64, 1),
		bcast:  make([]float64, 8+3*p.AtomsPerParticle),
		ftot:   make([]float64, 2*p.NumKVecs),
		fLocal: make([]float64, 2*p.NumKVecs),
	}
	// Alternating charges, slight asymmetry so the net molecular charge
	// is nonzero and the Fourier sum does not degenerate.
	s.charges = make([]float64, p.AtomsPerParticle)
	for a := range s.charges {
		if a%2 == 0 {
			s.charges[a] = 0.6
		} else {
			s.charges[a] = -0.4
		}
	}
	// Initial configuration: particles at random positions, with room for
	// an eighth more (the first insertion would move 120 KB on every core).
	room := p.NumParticles + p.NumParticles/8 + 1
	s.mol = make([][3]float64, 0, room*(1+p.AtomsPerParticle))
	s.pos = make([][3]float64, 0, room*p.AtomsPerParticle)
	for i := 0; i < p.NumParticles; i++ {
		s.setMol(i, s.randomMol())
	}
	s.fSrc = c.AllocF64(2 * p.NumKVecs)
	s.fDst = c.AllocF64(2 * p.NumKVecs)
	s.oneSrc = c.AllocF64(1)
	s.oneDst = c.AllocF64(1)
	s.bcastBuf = c.AllocF64(len(s.bcast))
	return s
}

// molAt returns molecule i's row of mol: center, then atom offsets.
func (s *Simulation) molAt(i int) [][3]float64 {
	w := 1 + s.P.AtomsPerParticle
	return s.mol[i*w : (i+1)*w]
}

// setMol makes molecule i equal to the row m (i == n appends) and
// re-wraps its atoms into pos. Every change of the configuration -
// initial placement, trial move, restore on reject, insert, the swap of
// a delete and its undo - is a setMol or a dropLast.
func (s *Simulation) setMol(i int, m [][3]float64) {
	na := s.P.AtomsPerParticle
	if i == s.n {
		s.n++
		s.mol = append(s.mol, m...)
		s.pos = append(s.pos, m[1:]...) // na slots, wrapped below
	} else {
		copy(s.molAt(i), m)
	}
	for a := 0; a < na; a++ {
		for d := 0; d < 3; d++ {
			s.pos[i*na+a][d] = wrap(m[0][d]+m[1+a][d], s.P.BoxSide)
		}
	}
}

// dropLast removes the last molecule.
func (s *Simulation) dropLast() {
	s.n--
	s.mol = s.mol[:s.n*(1+s.P.AtomsPerParticle)]
	s.pos = s.pos[:s.n*s.P.AtomsPerParticle]
}

// randomMol builds, in s.trial, a molecule at a random position with a
// compact random rigid geometry.
func (s *Simulation) randomMol() [][3]float64 {
	m := s.trial
	for d := 0; d < 3; d++ {
		m[0][d] = s.rng.Float64() * s.P.BoxSide
	}
	m[1] = [3]float64{}
	for a := 1; a < s.P.AtomsPerParticle; a++ {
		for d := 0; d < 3; d++ {
			m[1+a][d] = (s.rng.Float64() - 0.5) * 0.8
		}
	}
	return m
}

// ownerOf returns the core owning particle index i (block-cyclic).
func (s *Simulation) ownerOf(i int) int { return i % s.procs }

// isLocal reports whether particle i belongs to this core's local set.
func (s *Simulation) isLocal(i int) bool { return s.ownerOf(i) == s.rank }

// Run executes the GCMC main loop (Algorithm 1) and returns this core's
// result summary.
func (s *Simulation) Run() Result { return s.run(func(int) {}) }

// run is the main loop; afterStep is called with the cycle just finished
// (RunSampled's sampling point).
func (s *Simulation) run(afterStep func(cycle int)) Result {
	c := s.core
	start := c.Now()
	prof0 := c.Prof()

	s.comm.Barrier()
	s.enOld = s.totalEnergy() // InitialEnergy()

	for cycle := 0; cycle < s.P.Cycles; cycle++ {
		s.step()
		afterStep(cycle)
	}
	s.comm.Barrier()

	prof1 := c.Prof()
	return Result{
		FinalEnergy:   s.enOld,
		FinalN:        s.n,
		Stats:         s.stats,
		WallTime:      c.Now() - start,
		ComputeTime:   prof1.Compute - prof0.Compute,
		FlagWaitTime:  prof1.FlagWait - prof0.FlagWait,
		CommAllreduce: s.allreduce,
	}
}

// step performs one GCMC move (one iteration of Algorithm 1's loop).
func (s *Simulation) step() {
	s.stats.Attempted++
	action := s.pickAction()
	switch action {
	case moveTranslate, moveRotate:
		s.displaceMove(action)
	case moveInsert:
		s.insertMove()
	case moveDelete:
		s.deleteMove()
	}
}

// pickAction draws the move type (replicated RNG: every core draws the
// same value).
func (s *Simulation) pickAction() moveKind {
	if s.n == 0 {
		return moveInsert
	}
	return moveKind(s.rng.Intn(int(numMoveKinds)))
}

// displaceMove translates or rotates one particle and applies the
// Metropolis criterion.
func (s *Simulation) displaceMove(kind moveKind) {
	idx := s.rng.Intn(s.n)
	copy(s.saved, s.molAt(idx)) // SaveCurrentConfig
	enNew := s.enOld - s.shortEn(idx) - s.longEn()

	trial := s.trial
	copy(trial, s.saved)
	if kind == moveTranslate {
		s.stats.Translations++
		for d := 0; d < 3; d++ {
			trial[0][d] = wrap(trial[0][d]+(s.rng.Float64()-0.5)*2*s.P.MaxDisplacement, s.P.BoxSide)
		}
	} else {
		s.stats.Rotations++
		s.rotate(trial[1:])
	}
	s.setMol(idx, trial)
	s.chargeMoveGeneration()

	enNew += s.shortEn(idx) + s.longEn()
	if s.metropolis(enNew - s.enOld) {
		s.stats.Accepted++
		s.enOld = enNew
	} else {
		s.setMol(idx, s.saved) // RestoreConfig
	}
	s.broadcastUpdate(idx)
}

// insertMove attempts a grand-canonical insertion (Adams acceptance).
func (s *Simulation) insertMove() {
	s.stats.Insertions++
	enNew := s.enOld - s.longEn()
	idx := s.n
	s.setMol(idx, s.randomMol())
	s.chargeMoveGeneration()
	enNew += s.shortEn(idx) + s.longEn()
	delta := enNew - s.enOld
	acc := math.Exp(s.P.AdamsB-s.P.Beta*delta) / float64(s.n)
	if s.rng.Float64() < math.Min(1, acc) {
		s.stats.Accepted++
		s.stats.AcceptedInserts++
		s.enOld = enNew
	} else {
		s.dropLast()
	}
	s.broadcastUpdate(idx)
}

// deleteMove attempts a grand-canonical deletion.
func (s *Simulation) deleteMove() {
	s.stats.Deletions++
	idx := s.rng.Intn(s.n)
	copy(s.saved, s.molAt(idx))
	enNew := s.enOld - s.shortEn(idx) - s.longEn()
	// Remove by swapping with the tail (keeps ownership block-cyclic on
	// the index, which is all the cost model depends on).
	last := s.n - 1
	s.setMol(idx, s.molAt(last))
	s.dropLast()
	s.chargeMoveGeneration()
	enNew += s.longEn()
	delta := enNew - s.enOld
	acc := float64(s.n+1) * math.Exp(-s.P.AdamsB-s.P.Beta*delta)
	if s.rng.Float64() < math.Min(1, acc) {
		s.stats.Accepted++
		s.stats.AcceptedDeletes++
		s.enOld = enNew
	} else {
		// Restore: undo the swap-removal (one append when idx was last).
		if idx != last {
			s.setMol(last, s.molAt(idx))
		}
		s.setMol(idx, s.saved)
	}
	s.broadcastUpdate(idx)
}

// metropolis applies min(1, exp(-beta*delta)) with the replicated RNG.
func (s *Simulation) metropolis(delta float64) bool {
	if delta <= 0 {
		return true
	}
	return s.rng.Float64() < math.Exp(-s.P.Beta*delta)
}

// rotate applies a random rigid rotation (Rodrigues formula) to a
// molecule's atom offsets.
func (s *Simulation) rotate(off [][3]float64) {
	// Random unit axis.
	var axis [3]float64
	for {
		n2 := 0.0
		for d := 0; d < 3; d++ {
			axis[d] = 2*s.rng.Float64() - 1
			n2 += axis[d] * axis[d]
		}
		if n2 > 1e-6 && n2 <= 1 {
			n := math.Sqrt(n2)
			for d := 0; d < 3; d++ {
				axis[d] /= n
			}
			break
		}
	}
	theta := (s.rng.Float64() - 0.5) * math.Pi / 2
	sin, cos := math.Sin(theta), math.Cos(theta)
	for a := range off {
		v := off[a]
		// v' = v cos + (axis x v) sin + axis (axis.v)(1-cos)
		cross := [3]float64{
			axis[1]*v[2] - axis[2]*v[1],
			axis[2]*v[0] - axis[0]*v[2],
			axis[0]*v[1] - axis[1]*v[0],
		}
		dot := axis[0]*v[0] + axis[1]*v[1] + axis[2]*v[2]
		for d := 0; d < 3; d++ {
			off[a][d] = v[d]*cos + cross[d]*sin + axis[d]*dot*(1-cos)
		}
	}
}

// broadcastUpdate ships the updated particle state and energy from the
// owning core to everyone (Algorithm 1, line 13). All cores already
// computed the same update from the replicated RNG; the broadcast's
// cost is what the application-level benchmark measures.
func (s *Simulation) broadcastUpdate(idx int) {
	root := s.ownerOf(idx)
	if root == s.rank {
		buf := s.bcast
		clear(buf)
		buf[0] = float64(idx)
		buf[1] = s.enOld
		buf[2] = float64(s.n)
		if idx < s.n {
			m := s.molAt(idx)
			copy(buf[3:6], m[0][:])
			for a, off := range m[1:] {
				copy(buf[8+3*a:], off[:])
			}
		}
		s.core.WriteF64s(s.bcastBuf, buf)
	}
	s.comm.Broadcast(root, s.bcastBuf, len(s.bcast))
}

// chargeMoveGeneration prices the bookkeeping of generating a trial move.
func (s *Simulation) chargeMoveGeneration() {
	m := s.core.Chip().Model
	s.core.ComputeCycles(m.FlopCoreCycles * 200)
}

// wrap applies periodic boundary conditions to one coordinate.
func wrap(x, l float64) float64 {
	x = math.Mod(x, l)
	if x < 0 {
		x += l
	}
	return x
}
