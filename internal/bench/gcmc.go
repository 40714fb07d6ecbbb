package bench

import (
	"fmt"

	"scc/internal/core"
	"scc/internal/fabric"
	"scc/internal/gcmc"
	"scc/internal/rckmpi"
	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
)

// GCMCResult is one bar of Fig. 10: the application runtime under one
// communication stack, plus the profile the paper discusses (Sec. IV-A:
// up to 50% of time in rcce_wait_until under the blocking stack).
type GCMCResult struct {
	Stack        Stack
	WallTime     simtime.Duration
	ComputeTime  simtime.Duration
	FlagWaitTime simtime.Duration
	FinalEnergy  float64
	FinalN       int
	Accepted     int
	Attempted    int
	Allreduces   int
}

// WaitFraction returns the share of wall time core 0 spent blocked on
// MPB flags.
func (r GCMCResult) WaitFraction() float64 {
	if r.WallTime == 0 {
		return 0
	}
	return float64(r.FlagWaitTime) / float64(r.WallTime)
}

// RunGCMC executes the thermodynamic application under one stack and
// returns core 0's result (all cores agree on physics by construction).
func RunGCMC(model *timing.Model, st Stack, p gcmc.Params) GCMCResult {
	sys := fabric.New(model, 1)
	defer sys.Release()
	comm := sys.Comms[0]
	var out GCMCResult
	out.Stack = st
	sys.Launch(func(_ int, c *scc.Core) {
		ue := comm.UE(c.ID)
		var collectives gcmc.Collectives = rckmpi.New(ue)
		if !st.RCKMPI {
			collectives = core.NewCtx(ue, st.Cfg)
		}
		sim := gcmc.New(c, collectives, comm.NumUEs(), p)
		res := sim.Run()
		if c.ID == 0 {
			out.WallTime = res.WallTime
			out.ComputeTime = res.ComputeTime
			out.FlagWaitTime = res.FlagWaitTime
			out.FinalEnergy = res.FinalEnergy
			out.FinalN = res.FinalN
			out.Accepted = res.Stats.Accepted
			out.Attempted = res.Stats.Attempted
			out.Allreduces = res.CommAllreduce
		}
	})
	if err := sys.Run(); err != nil {
		panic(fmt.Sprintf("bench: gcmc under %s: %v", st.Name, err))
	}
	return out
}

// GCMCStacks returns the six bars of Fig. 10, top to bottom.
func GCMCStacks() []Stack {
	return []Stack{
		{Name: "RCKMPI", RCKMPI: true},
		{Name: "blocking", Cfg: core.ConfigBlocking},
		{Name: "iRCCE (non-blocking)", Cfg: core.ConfigIRCCE},
		{Name: "Lightweight non-blocking", Cfg: core.ConfigLightweight},
		{Name: "Lightweight non-blocking, balanced", Cfg: core.ConfigBalanced},
		{Name: "MPB-based Allreduce", Cfg: core.ConfigMPB},
	}
}

// RunFig10 measures the whole figure.
func RunFig10(model *timing.Model, p gcmc.Params) []GCMCResult {
	var out []GCMCResult
	for _, st := range GCMCStacks() {
		out = append(out, RunGCMC(model, st, p))
	}
	return out
}
