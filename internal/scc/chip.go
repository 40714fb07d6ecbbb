// Package scc models the Single-Chip Cloud Computer: P54C cores spread
// over a rectangular tile mesh (48 cores on a 6x4 mesh of dual-core
// tiles in the paper's configuration), per-core message-passing buffers
// (MPBs), L1/L2 private-memory caches, and edge memory controllers. The
// geometry comes entirely from the timing.Model, so arbitrary RxC
// meshes simulate with the same code.
//
// Simulated programs are written against the Core API: they allocate
// private memory, read and write it (priced through the cache model),
// access MPBs (priced by locality and the mesh), and synchronize through
// MPB flags. The package knows nothing about RCCE or MPI; the
// communication libraries are layered on top.
package scc

import (
	"errors"
	"fmt"

	"scc/internal/mesh"
	"scc/internal/metrics"
	"scc/internal/simtime"
	"scc/internal/timing"
)

// FaultHook lets a fault-injection plan intercept shared-state actions.
// All methods are consulted on the simulated program's critical path, so
// implementations must be deterministic functions of (location, virtual
// time). A nil hook is the fault-free chip. See internal/fault for the
// seeded implementation.
type FaultHook interface {
	// StallCore returns extra latency to impose on the core's next
	// shared-state access (a transient core stall), or 0.
	StallCore(core int, now simtime.Time) simtime.Duration
	// CoreDead reports whether the core has permanently failed at or
	// before now. A dead core's process terminates at its next
	// shared-state access and never resumes.
	CoreDead(core int, now simtime.Time) bool
	// DropFlagWrite reports whether a single-byte flag write by writer
	// to MPB offset off should be lost in flight (cost is still paid,
	// the flag value never lands, no waiter wakes).
	DropFlagWrite(writer, off int, now simtime.Time) bool
	// FilterMPBWrite may corrupt a bulk MPB write in place (mutate
	// data) and/or return true to drop it entirely.
	FilterMPBWrite(writer, off int, data []byte, now simtime.Time) bool
}

// coreDeadPanic unwinds a simulated process whose core was declared dead
// by the fault hook. It is recovered by the Launch wrapper.
type coreDeadPanic struct{ id int }

// Chip is one simulated SCC plus its simulation engine.
type Chip struct {
	Model  *timing.Model
	Engine *simtime.Engine
	Net    *mesh.Network
	Cores  []*Core
	// Fault, when non-nil, intercepts shared-state actions for fault
	// injection. Install it before Run (typically right after New).
	Fault FaultHook

	// kit is the chip's recyclable host storage (see arena.go): the cores'
	// memories and caches, mpb and parked. Nil once the chip is released.
	kit *kit
	mpb *mpbArena
	// parked[owner] lists, in park order, the cores blocked on a flag byte
	// of owner's MPB (see wait.go). Indexed by owner so a write scans only
	// the waiters of the cores it lands in — on a big chip during a
	// broadcast, thousands of cores block on their own flags at once, and
	// a per-write scan over all of them would be O(cores) per message.
	parked [][]int32

	// Hardware test-and-set registers, one per core (see tas.go).
	tasTaken []bool
	tasSigs  map[int]*simtime.Signal

	// metrics, when non-nil, receives phase/counter observations from
	// every core and the mesh (see internal/metrics). Recording never
	// advances virtual time, so an instrumented run is bit-identical
	// to an uninstrumented one.
	metrics *metrics.Registry

	// NamePrefix, when set before Launch, prefixes every core process
	// name ("chip1.core03"). Multi-chip systems sharing one engine use
	// it to keep deadlock reports and notes unambiguous; the default
	// empty prefix preserves the single-chip names byte for byte.
	NamePrefix string
}

// New builds a chip for the given model (use timing.Default for the
// paper's configuration) on a fresh simulation engine. It panics if the
// model is invalid; validate separately if the model comes from user
// input.
func New(model *timing.Model) *Chip {
	return NewOnEngine(model, simtime.NewEngine())
}

// NewOnEngine builds a chip on an existing engine, so several chips (a
// multi-chip fabric.System) can share one virtual clock and scheduler.
// A parked kit that fits is built on (see arena.go); the chip is the same.
func NewOnEngine(model *timing.Model, eng *simtime.Engine) *Chip {
	if err := model.Validate(); err != nil {
		panic(err)
	}
	k, n := adoptKit(model), model.NumCores()
	c := &Chip{
		Model:    model,
		Engine:   eng,
		Net:      mesh.New(model),
		Cores:    make([]*Core, n),
		kit:      k,
		mpb:      k.mpb,
		parked:   k.parked,
		tasTaken: make([]bool, n),
		tasSigs:  make(map[int]*simtime.Signal),
	}
	cores := make([]Core, n)
	for id := range cores {
		cores[id].init(c, id, k.cores[id])
		k.cores[id] = coreStore{} // given away: a slab the core outgrows must not stay reachable
		c.Cores[id] = &cores[id]
	}
	return c
}

// NumCores returns how many cores the chip has.
func (c *Chip) NumCores() int { return len(c.Cores) }

// SetMetrics attaches (or, with nil, detaches) a metrics registry to
// the chip and its mesh. Install it before Run (typically right after
// New). The registry must have been created for this chip's core
// count.
func (c *Chip) SetMetrics(reg *metrics.Registry) {
	if reg != nil && reg.NumCores() != c.NumCores() {
		panic(fmt.Sprintf("scc: metrics registry sized for %d cores on a %d-core chip",
			reg.NumCores(), c.NumCores()))
	}
	c.metrics = reg
	c.Net.SetMetrics(reg)
}

// Metrics returns the attached metrics registry, or nil.
func (c *Chip) Metrics() *metrics.Registry { return c.metrics }

// TileOf returns the mesh coordinate of a core's tile. Cores are numbered
// as on the real SCC: core id / CoresPerTile is the tile index, tiles are
// row-major over the mesh.
func (c *Chip) TileOf(coreID int) mesh.Coord {
	tile := coreID / c.Model.CoresPerTile
	return mesh.Coord{X: tile % c.Model.MeshWidth, Y: tile / c.Model.MeshWidth}
}

// memControllerFor returns the router coordinate of the memory controller
// serving a core. The controllers sit at the four mesh corners (on the
// SCC, the left and right edges); each quadrant of cores maps to its
// nearest controller, whatever the mesh dimensions.
func (c *Chip) memControllerFor(coreID int) mesh.Coord {
	t := c.TileOf(coreID)
	x := 0
	if t.X >= c.Model.MeshWidth/2 {
		x = c.Model.MeshWidth - 1
	}
	y := 0
	if t.Y >= c.Model.MeshHeight/2 {
		y = c.Model.MeshHeight - 1
	}
	return mesh.Coord{X: x, Y: y}
}

// MPBOwner returns which core owns the MPB byte at global offset off.
func (c *Chip) MPBOwner(off int) int { return off / c.Model.MPBBytesPerCore }

// MPBBase returns the global MPB offset of a core's MPB region
// (MPBBytesPerCore bytes each).
func (c *Chip) MPBBase(coreID int) int { return coreID * c.Model.MPBBytesPerCore }

// MPBSlice exposes a copy of raw MPB contents for tests and debugging.
// It performs no timing; simulated programs must use the Core accessors
// instead. (The MPB is stored as a paged sparse arena, so there is no
// contiguous backing slice to alias; mutations must go through the Core
// API anyway.)
func (c *Chip) MPBSlice(off, n int) []byte {
	out := make([]byte, n)
	c.mpb.read(c.MPBOwner(off), off, out)
	return out
}

// Launch spawns one simulated process per core, all running fn with their
// own core handle (SPMD style). Call Run afterwards. A core killed by an
// injected fault in an earlier run stays dead: its process is not
// respawned — exactly like real silicon, a died core does not come back
// for the next program.
func (c *Chip) Launch(fn func(core *Core)) {
	c.mustLive()
	for _, core := range c.Cores {
		if !core.dead {
			c.LaunchOne(core.ID, fn)
		}
	}
}

// LaunchOne spawns a simulated process on a single core. Mixing Launch
// and LaunchOne on the same chip is allowed before Run.
func (c *Chip) LaunchOne(coreID int, fn func(core *Core)) {
	c.mustLive()
	core := c.Cores[coreID]
	core.proc = c.Engine.Spawn(fmt.Sprintf("%score%02d", c.NamePrefix, coreID), func(p *simtime.Proc) {
		defer recoverCoreDeath(core, p)
		fn(core)
		core.flushLocal() // apply trailing deferred latency
	})
}

// recoverCoreDeath absorbs the panic that unwinds a process whose core an
// injected fault declared dead: the process simply terminates (its flags
// go silent, exactly like a hung real core). Every other panic — including
// the engine's shutdown sentinel — is re-raised untouched.
func recoverCoreDeath(core *Core, p *simtime.Proc) {
	if r := recover(); r != nil {
		if _, ok := r.(coreDeadPanic); !ok {
			panic(r)
		}
		core.dead = true
		p.SetNote(simtime.Note2("core%02d died at t=%d ticks (injected fault)",
			int64(core.ID), int64(p.Now())))
	}
}

// ErrCoreDead marks a run that failed because an injected fault killed
// a core: the surviving processes deadlocked (or otherwise erred)
// waiting on flags the dead core will never write. Callers that did not
// enable recovery get this typed error instead of a bare deadlock
// report; errors.Is(err, ErrCoreDead) identifies the case.
var ErrCoreDead = errors.New("scc: core died mid-run")

// Run executes the simulation to completion and returns the engine error
// (nil, deadlock, or a propagated panic). When the run fails and one or
// more cores were killed by injected faults, the error is wrapped with
// ErrCoreDead naming the dead cores — a deadlock with a core down is a
// consequence of the death, not a protocol bug.
func (c *Chip) Run() error {
	c.mustLive()
	err := c.Engine.Run()
	if err == nil {
		return nil
	}
	var dead []int
	for _, core := range c.Cores {
		if core.dead {
			dead = append(dead, core.ID)
		}
	}
	if len(dead) == 0 {
		return err
	}
	return fmt.Errorf("%w (cores %v): %v", ErrCoreDead, dead, err)
}

// Now returns the current virtual time.
func (c *Chip) Now() simtime.Time { return c.Engine.Now() }
