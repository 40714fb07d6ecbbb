// Package fabric joins several simulated SCC chips into one System
// through a slower board-level interconnect, the substrate for the
// hierarchical collectives of internal/core.
//
// The cost model mirrors a mesh link one level up: every inter-chip
// message pays a fixed head latency (FabricBaseLatencyMeshCycles),
// serializes at the fabric width (FabricBytesPerMeshCycle), and
// occupies its directed chip-to-chip link for the serialization time,
// so back-to-back messages between the same chip pair queue exactly
// like packets on a mesh link. Gateway cores additionally pay a
// per-message software cost (FabricPerMessageCoreCycles) to post or
// drain a transfer.
//
// All chips share one simtime.Engine, so a multi-chip run is a single
// deterministic event sequence: same seed, same byte-identical result,
// at any host worker count.
//
// System is also the one place where simulated systems are built: a
// single chip is the 1-chip fabric, indistinguishable from a bare
// scc.Chip (same process names, same errors, same event sequence). The
// façade and every measurement of internal/bench construct their chips
// and communicators here.
package fabric

import (
	"fmt"

	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
)

// System is K chips on one virtual clock, joined pairwise by the
// inter-chip fabric. Chip i's cores are reachable only from chip i;
// cross-chip data moves through Port Send/Recv on gateway cores.
type System struct {
	Engine *simtime.Engine
	Chips  []*scc.Chip
	// Comms holds one RCCE communicator per chip, in chip order.
	Comms []*rcce.Comm
	model *timing.Model

	// links holds the K*K directed mailboxes, indexed src*K+dst. The
	// diagonal entries exist but are never used (same-chip traffic
	// stays on the mesh).
	links []link
	ports []Port
}

// link is the rendezvous mailbox of one directed chip pair plus the
// occupancy state of its physical channel.
type link struct {
	// busyUntil is when the channel finishes serializing the last
	// message injected into it; the next message queues behind it.
	busyUntil simtime.Time

	// Mailbox: one message in flight per directed pair. full guards
	// data/arriveAt; fullSig wakes the receiver, freeSig the next
	// sender waiting for the slot.
	full     bool
	data     []float64
	arriveAt simtime.Time
	fullSig  simtime.Signal
	freeSig  simtime.Signal
}

// New builds a System of k chips, all instances of the same model, on a
// fresh engine, each with its RCCE communicator. With k > 1, core
// process names get a "chip<i>." prefix so notes and deadlock reports
// stay unambiguous; the single chip of k = 1 keeps the bare names. It
// panics on an invalid model, k < 1 or (for k > 1) a fabric without
// width, mirroring scc.New; validate first when the arguments come from
// user input.
func New(model *timing.Model, k int) *System {
	if k < 1 {
		panic(fmt.Sprintf("fabric: system needs at least one chip, got %d", k))
	}
	if k > 1 && model.FabricBytesPerMeshCycle <= 0 {
		panic(fmt.Sprintf("fabric: fabric width must be positive, got %d",
			model.FabricBytesPerMeshCycle))
	}
	s := &System{Engine: simtime.NewEngine(), model: model}
	if k > 1 { // a single chip has nobody to talk to: no links, no ports
		s.links = make([]link, k*k)
		s.ports = make([]Port, k)
	}
	for i := 0; i < k; i++ {
		chip := scc.NewOnEngine(model, s.Engine)
		s.Chips = append(s.Chips, chip)
		s.Comms = append(s.Comms, rcce.NewComm(chip))
		if k > 1 {
			chip.NamePrefix = fmt.Sprintf("chip%d.", i)
			s.ports[i] = Port{sys: s, chip: i}
		}
	}
	return s
}

// NumChips returns how many chips the system spans.
func (s *System) NumChips() int { return len(s.Chips) }

// NumCores returns the core count over all chips.
func (s *System) NumCores() int { return len(s.Chips) * s.model.NumCores() }

// Model returns the shared timing model.
func (s *System) Model() *timing.Model { return s.model }

// Now returns the system's virtual time.
func (s *System) Now() simtime.Time { return s.Engine.Now() }

// Port returns chip's handle to the fabric (a 1-chip system has none).
// Any core of the chip may drive it, but the hierarchical collectives
// use core 0 as the gateway.
func (s *System) Port(chip int) *Port {
	if chip < 0 || chip >= len(s.ports) {
		panic(fmt.Sprintf("fabric: no port %d in a %d-chip system", chip, len(s.Chips)))
	}
	return &s.ports[chip]
}

// Launch spawns fn on every live core of every chip (SPMD), passing the
// chip index along with the core. Call Run afterwards.
func (s *System) Launch(fn func(chip int, c *scc.Core)) {
	for ci, chip := range s.Chips {
		ci := ci
		chip.Launch(func(c *scc.Core) { fn(ci, c) })
	}
}

// Run executes the whole system to completion: one engine, one error.
// Per-chip Run must not be used in a multi-chip system (the chips share
// the engine); this is the only run entry point. A 1-chip system reports
// exactly scc.Chip.Run's error.
func (s *System) Run() error {
	if len(s.Chips) == 1 {
		return s.Chips[0].Run()
	}
	err := s.Engine.Run()
	if err == nil {
		return nil
	}
	var dead []int
	for ci, chip := range s.Chips {
		for _, core := range chip.Cores {
			if core.Dead() {
				dead = append(dead, ci*s.model.NumCores()+core.ID)
			}
		}
	}
	if len(dead) == 0 {
		return err
	}
	return fmt.Errorf("%w (system cores %v): %v", scc.ErrCoreDead, dead, err)
}

// Release ends the life of every chip (see scc.Chip.Release), whether Run
// succeeded, failed or never happened. The system must not be used again.
func (s *System) Release() {
	for _, chip := range s.Chips {
		chip.Release()
	}
}

// Port is one chip's endpoint on the fabric.
type Port struct {
	sys  *System
	chip int
}

// Chip returns the port's chip index.
func (p *Port) Chip() int { return p.chip }

// NumChips returns the system size.
func (p *Port) NumChips() int { return p.sys.NumChips() }

// serialization returns how long n doubles occupy the fabric channel.
// Even a zero-length message (a barrier token) holds the channel for
// one mesh cycle of framing.
func (s *System) serialization(n int) simtime.Duration {
	bytes := 8 * n
	cycles := int64((bytes + s.model.FabricBytesPerMeshCycle - 1) / s.model.FabricBytesPerMeshCycle)
	if cycles < 1 {
		cycles = 1
	}
	return simtime.MeshCycles(cycles)
}

// Send posts data from core c (on this port's chip) to chip dst. It
// blocks until the mailbox slot is free and the message's last byte has
// been injected into the channel; delivery completes later, when the
// head latency and serialization have elapsed (the receiver's Recv
// observes that time). data is copied, so the caller may reuse it.
func (p *Port) Send(c *scc.Core, dst int, data []float64) {
	s := p.sys
	if dst < 0 || dst >= s.NumChips() || dst == p.chip {
		panic(fmt.Sprintf("fabric: chip %d cannot send to chip %d", p.chip, dst))
	}
	var t0 simtime.Time
	if c.Tracing() {
		t0 = c.Now()
	}
	c.OverheadCycles(s.model.FabricPerMessageCoreCycles)
	now := c.Now() // flush deferred local latency before touching shared state
	l := &s.links[p.chip*s.NumChips()+dst]
	for l.full {
		c.Proc().WaitOn(&l.freeSig, simtime.Site("fabric send: mailbox full"))
	}
	now = c.Proc().Now()
	inj := now
	if l.busyUntil > inj {
		inj = l.busyUntil // queue behind the message still serializing
	}
	ser := s.serialization(len(data))
	l.busyUntil = inj + ser
	l.arriveAt = inj + simtime.MeshCycles(s.model.FabricBaseLatencyMeshCycles) + ser
	l.data = append(l.data[:0], data...)
	l.full = true
	l.fullSig.Broadcast(s.Engine)
	c.Proc().Sleep(l.busyUntil - now) // sender is occupied until the tail is injected
	if c.Tracing() {
		c.RecordSpan("fabric.send", t0, c.Now())
	}
}

// Recv blocks core c until the message from chip src has fully arrived,
// copies it into buf (lengths must match) and frees the mailbox slot
// for the next sender.
func (p *Port) Recv(c *scc.Core, src int, buf []float64) {
	s := p.sys
	if src < 0 || src >= s.NumChips() || src == p.chip {
		panic(fmt.Sprintf("fabric: chip %d cannot receive from chip %d", p.chip, src))
	}
	var t0 simtime.Time
	if c.Tracing() {
		t0 = c.Now()
	}
	c.OverheadCycles(s.model.FabricPerMessageCoreCycles)
	now := c.Now()
	l := &s.links[src*s.NumChips()+p.chip]
	for !l.full {
		c.Proc().WaitOn(&l.fullSig, simtime.Site("fabric recv: mailbox empty"))
	}
	now = c.Proc().Now()
	if l.arriveAt > now {
		c.Proc().Sleep(l.arriveAt - now)
	}
	if len(buf) != len(l.data) {
		panic(fmt.Sprintf("fabric: chip %d expected %d doubles from chip %d, got %d",
			p.chip, len(buf), src, len(l.data)))
	}
	copy(buf, l.data)
	l.full = false
	l.freeSig.Broadcast(s.Engine)
	if c.Tracing() {
		c.RecordSpan("fabric.recv", t0, c.Now())
	}
}
