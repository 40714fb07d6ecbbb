// Thermo: a scaled-down run of the paper's thermodynamic application
// (grand-canonical Monte Carlo with Ewald long-range energies,
// Algorithms 1-2) under two communication stacks, reproducing the
// structure of Fig. 10 interactively.
//
// The physics engine lives in internal/gcmc; this example wires it to
// the public System/Rank API and prints the thermodynamic observables
// alongside the communication profile.
package main

import (
	"fmt"

	sccsim "scc"
	"scc/internal/bench"
	"scc/internal/core"
	"scc/internal/fabric"
	"scc/internal/gcmc"
	"scc/internal/scc"
	"scc/internal/timing"
)

func main() {
	p := gcmc.DefaultParams()
	p.Cycles = 20
	p.NumParticles = 480 // lighter than the Fig. 10 workload: this is a demo

	fmt.Printf("GCMC: %d molecules x %d atoms, %d k-vectors (%d-double Allreduce per energy), %d cycles\n\n",
		p.NumParticles, p.AtomsPerParticle, p.NumKVecs, 2*p.NumKVecs, p.Cycles)

	for _, stack := range []sccsim.Stack{sccsim.StackBlocking, sccsim.StackMPB} {
		st := bench.Stack{Name: stack.String()}
		if stack == sccsim.StackRCKMPI {
			st.RCKMPI = true
		} else {
			// Map the public stack onto the harness configuration.
			for _, cand := range bench.GCMCStacks() {
				if cand.Name == "blocking" && stack == sccsim.StackBlocking {
					st = cand
				}
				if cand.Name == "MPB-based Allreduce" && stack == sccsim.StackMPB {
					st = cand
				}
			}
		}
		r := bench.RunGCMC(timing.Default(), st, p)
		fmt.Printf("%-24s wall %9.1f ms | energy %12.3f | N %d | accepted %d/%d | flag-wait %4.1f%%\n",
			stack, r.WallTime.Millis(), r.FinalEnergy, r.FinalN,
			r.Accepted, r.Attempted, 100*r.WaitFraction())
	}
	fmt.Println("\nBoth stacks compute identical physics; only the virtual runtime differs.")

	// Sampled run: the thermodynamic observables the application exists
	// to estimate (internal energy, density, virial pressure).
	sys := fabric.New(timing.Default(), 1)
	defer sys.Release()
	comm := sys.Comms[0]
	var obs gcmc.Observables
	sys.Launch(func(_ int, c *scc.Core) {
		ctx := core.NewCtx(comm.UE(c.ID), core.ConfigBalanced)
		sim := gcmc.New(c, gcmc.CoreStack{Ctx: ctx}, comm.NumUEs(), p)
		_, o := sim.RunSampled(5, 3)
		if c.ID == 0 {
			obs = o
		}
	})
	if err := sys.Run(); err != nil {
		panic(err)
	}
	fmt.Printf("\nobservables over %d samples:  <E> %.2f   <N> %.1f   density %.4f   pressure %.4f\n",
		obs.Samples, obs.MeanEnergy, obs.MeanN, obs.MeanDensity, obs.MeanVirialPressure)
	fmt.Println("Run cmd/gcmcapp for the full six-bar Fig. 10 reproduction.")
}
