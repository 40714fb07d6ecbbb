package gcmc

import (
	"scc/internal/core"
	"scc/internal/rckmpi"
	"scc/internal/scc"
)

// CoreStack adapts the optimized collectives (package core) to the
// application's Collectives interface, which has no error results: a
// collective that fails panics with its error, and the simulator's run
// reports the panic.
type CoreStack struct {
	Ctx *core.Ctx
}

// Allreduce sums element-wise across all cores.
func (s CoreStack) Allreduce(src, dst scc.Addr, n int) {
	must(s.Ctx.Allreduce(src, dst, n, core.Sum))
}

// Broadcast distributes from root.
func (s CoreStack) Broadcast(root int, addr scc.Addr, n int) {
	must(s.Ctx.Broadcast(root, addr, n))
}

// Barrier synchronizes all cores.
func (s CoreStack) Barrier() { must(s.Ctx.Barrier()) }

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// RCKMPIStack adapts the RCKMPI comparator.
type RCKMPIStack struct {
	Lib *rckmpi.Lib
}

// Allreduce sums element-wise across all cores.
func (s RCKMPIStack) Allreduce(src, dst scc.Addr, n int) {
	s.Lib.Allreduce(src, dst, n, func(a, b float64) float64 { return a + b })
}

// Broadcast distributes from root.
func (s RCKMPIStack) Broadcast(root int, addr scc.Addr, n int) {
	s.Lib.Bcast(root, addr, n)
}

// Barrier synchronizes all cores (RCKMPI delegates to the underlying
// flag barrier).
func (s RCKMPIStack) Barrier() { s.Lib.UE().Barrier() }
