package main

import (
	"io"
	"runtime"
	"time"

	sccsim "scc"
	"scc/internal/bench"
	"scc/internal/core"
	"scc/internal/fault"
	"scc/internal/gcmc"
	"scc/internal/lwnb"
	"scc/internal/mesh"
	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/synth"
	"scc/internal/timing"
	"scc/internal/trace"
)

// Layer probes: one small measurement per layer, through the layer's
// public functions only, so that a change to one layer has a number of
// its own to move. Host-time probes take the minimum of a few
// repetitions (the least disturbed one); they are diagnostics without a
// bound, not end-to-end metrics. Probes of virtual time are exact.

// probeReps is how often a probe of microseconds to milliseconds
// repeats, macroReps one that builds and runs whole chips; the minimum
// is kept. Probes of a second or more run once. The counts are sized so
// that all probes together take about ten seconds.
const (
	probeReps = 5
	macroReps = 3
)

func minOf(reps int, f func() float64) float64 {
	best := f()
	for i := 1; i < reps; i++ {
		if v := f(); v < best {
			best = v
		}
	}
	return best
}

// perOp times f, which performs ops operations, in nanoseconds each.
func perOp(ops int, f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0).Nanoseconds()) / float64(ops)
}

func mustRun(eng *simtime.Engine) {
	if err := eng.Run(); err != nil {
		panic("probe: " + err.Error())
	}
}

func mustRunChip(chip *scc.Chip) {
	if err := chip.Run(); err != nil {
		panic("probe: " + err.Error())
	}
}

// runProbes adds every probe metric to m. Each group of probes counts
// as one attempted unit: a layer that panics under its probe fails that
// unit. quick runs each probe once and skips the ones that take seconds
// (the application, the large chips), for the test that only checks the
// probes still run.
func (s *session) runProbes(m map[string]float64, quick bool) {
	reps, macro := probeReps, macroReps
	if quick {
		reps, macro = 1, 1
	}
	groups := []struct {
		name string
		run  func()
	}{
		{"simtime", func() { probeSimtime(m, reps) }},
		{"mesh", func() { probeMesh(m, reps) }},
		{"scc", func() { probeSCC(m, reps) }},
		{"rcce", func() { probeRCCE(m, reps) }},
		{"core+rckmpi", func() { probeCollectives(m, macro) }},
		{"synth", func() { probeSynth(m, reps) }},
		{"fault+metrics+trace", func() { probeFaultMetricsTrace(m, macro) }},
		{"bench+fabric+sccsim", func() { probeBenchFabricFacade(m, macro) }},
		{"gcmc", func() { probeGCMC(m) }},
		{"10k", func() { probe10k(m) }},
	}
	if quick {
		groups = groups[:len(groups)-2]
	}
	for _, g := range groups {
		s.checkExtra("probes/"+g.name, guard(func() error { g.run(); return nil }))
	}
}

func probeSimtime(m map[string]float64, reps int) {
	const procs, sleeps = 48, 2000
	m["simtime.event_ns"] = minOf(reps, func() float64 {
		eng := simtime.NewEngine()
		for p := 0; p < procs; p++ {
			eng.Spawn("probe", func(p *simtime.Proc) {
				for i := 0; i < sleeps; i++ {
					p.Sleep(3)
				}
			})
		}
		return perOp(procs*sleeps, func() { mustRun(eng) })
	})

	const handoffs = 100_000
	m["simtime.handoff_ns"] = minOf(reps, func() float64 {
		eng := simtime.NewEngine()
		eng.Spawn("a", func(p *simtime.Proc) {
			p.Sleep(1)
			for i := 0; i < handoffs/2; i++ {
				p.Sleep(2)
			}
		})
		eng.Spawn("b", func(p *simtime.Proc) {
			for i := 0; i < handoffs/2; i++ {
				p.Sleep(2)
			}
		})
		return perOp(handoffs, func() { mustRun(eng) })
	})

	const fast = 2_000_000
	m["simtime.fastpath_ns"] = minOf(reps, func() float64 {
		eng := simtime.NewEngine()
		eng.Spawn("solo", func(p *simtime.Proc) {
			for i := 0; i < fast; i++ {
				p.Sleep(3)
			}
		})
		return perOp(fast, func() { mustRun(eng) })
	})

	// Every wait expires: the path the hardened protocol takes when a
	// peer stays silent.
	m["simtime.timeout_ns"] = minOf(reps, func() float64 {
		eng := simtime.NewEngine()
		var never simtime.Signal
		site := simtime.Site("probe")
		for p := 0; p < procs; p++ {
			eng.Spawn("probe", func(p *simtime.Proc) {
				for i := 0; i < sleeps; i++ {
					p.WaitOnTimeout(&never, 3, site)
				}
			})
		}
		return perOp(procs*sleeps, func() { mustRun(eng) })
	})

	const rounds = 1000
	m["simtime.signal_wake_ns"] = minOf(reps, func() float64 {
		eng := simtime.NewEngine()
		var sig simtime.Signal
		site := simtime.Site("probe")
		for p := 0; p < procs-1; p++ {
			eng.Spawn("waiter", func(p *simtime.Proc) {
				for i := 0; i < rounds; i++ {
					p.WaitOn(&sig, site)
				}
			})
		}
		eng.Spawn("waker", func(p *simtime.Proc) {
			for i := 0; i < rounds; i++ {
				p.Sleep(10)
				sig.Broadcast(eng)
			}
		})
		return perOp(rounds*(procs-1), func() { mustRun(eng) })
	})

	// 10,000 processes that return at once: the cost of adopting a
	// pooled worker, the floor of every large chip's launch.
	const spawned = 10_000
	spawn := func() float64 {
		eng := simtime.NewEngine()
		return perOp(spawned, func() {
			for p := 0; p < spawned; p++ {
				eng.Spawn("probe", func(p *simtime.Proc) {})
			}
			mustRun(eng)
		})
	}
	spawn() // fill the pool
	m["simtime.spawn_ns"] = minOf(reps, spawn)
}

func probeMesh(m map[string]float64, reps int) {
	model := timing.Default()
	const transfers = 200_000
	far := mesh.Coord{X: model.MeshWidth - 1, Y: model.MeshHeight - 1}
	m["mesh.transfer_ns"] = minOf(reps, func() float64 {
		net := mesh.New(model)
		return perOp(transfers, func() {
			var at simtime.Time
			for i := 0; i < transfers; i++ {
				at = net.Transfer(mesh.Coord{}, mesh.Coord{X: i % model.MeshWidth, Y: (i / model.MeshWidth) % model.MeshHeight}, 256, at)
			}
		})
	})
	// Every packet starts at time 0 on one route, so each queues behind
	// all earlier ones.
	m["mesh.transfer_contended_ns"] = minOf(reps, func() float64 {
		net := mesh.New(model)
		return perOp(transfers, func() {
			for i := 0; i < transfers; i++ {
				net.Transfer(mesh.Coord{}, far, 256, 0)
			}
		})
	})
	m["mesh.reset_ns"] = minOf(reps, func() float64 {
		net := mesh.New(model)
		return perOp(transfers, func() {
			for i := 0; i < transfers; i++ {
				net.Reset()
			}
		})
	})
}

// onCores runs prog on the first n cores of a fresh default chip and
// returns the host time of the run alone.
func onCores(n int, prog func(c *scc.Core, comm *rcce.Comm)) time.Duration {
	chip := scc.New(timing.Default())
	comm := rcce.NewComm(chip)
	for id := 0; id < n; id++ {
		chip.LaunchOne(id, func(c *scc.Core) { prog(c, comm) })
	}
	t0 := time.Now()
	mustRunChip(chip)
	return time.Since(t0)
}

func probeSCC(m map[string]float64, reps int) {
	model := timing.Default()
	const lineBytes = 32
	const privBytes, privReps = 64 << 10, 20
	m["scc.priv_line_ns"] = minOf(reps, func() float64 {
		d := onCores(1, func(c *scc.Core, _ *rcce.Comm) {
			a := c.Alloc(privBytes)
			for i := 0; i < privReps; i++ {
				c.TouchRead(a, privBytes)
			}
		})
		return float64(d.Nanoseconds()) / float64(privReps*privBytes/lineBytes)
	})
	const mpbBytes, mpbReps = 4096, 200
	m["scc.mpb_line_ns"] = minOf(reps, func() float64 {
		buf := make([]byte, mpbBytes)
		d := onCores(1, func(c *scc.Core, comm *rcce.Comm) {
			off := comm.DataBase(c.ID)
			for i := 0; i < mpbReps; i++ {
				c.MPBRead(off, buf)
			}
		})
		return float64(d.Nanoseconds()) / float64(mpbReps*mpbBytes/lineBytes)
	})
	const sets = 20_000
	m["scc.flag_set_ns"] = minOf(reps, func() float64 {
		d := onCores(1, func(c *scc.Core, comm *rcce.Comm) {
			off := comm.FlagAddr(1, 0, rcce.FlagSent)
			for i := 0; i < sets; i++ {
				c.SetFlag(off, byte(i))
			}
		})
		return float64(d.Nanoseconds()) / sets
	})
	// Two cores hand a token back and forth through MPB flags: every
	// wait blocks and is woken by the peer's write.
	const pingpongs = 5000
	m["scc.flag_wait_ns"] = minOf(reps, func() float64 {
		d := onCores(2, func(c *scc.Core, comm *rcce.Comm) {
			mine := comm.FlagAddr(c.ID, 1-c.ID, rcce.FlagSent)
			theirs := comm.FlagAddr(1-c.ID, c.ID, rcce.FlagSent)
			for i := 0; i < pingpongs; i++ {
				v := byte(i%200 + 1)
				if c.ID == 0 {
					c.SetFlag(theirs, v)
					c.WaitFlag(mine, v)
				} else {
					c.WaitFlag(mine, v)
					c.SetFlag(theirs, v)
				}
			}
		})
		return float64(d.Nanoseconds()) / (2 * pingpongs)
	})
	m["scc.build_us_per_core_48"] = minOf(reps, func() float64 {
		t0 := time.Now()
		rcce.NewComm(scc.New(model))
		return time.Since(t0).Seconds() * 1e6 / float64(model.NumCores())
	})
}

// messages times msgs one-way messages of nBytes from core 0 to core 1.
func messages(msgs, nBytes int, send, recv func(ue *rcce.UE, c *scc.Core, addr scc.Addr)) time.Duration {
	return onCores(2, func(c *scc.Core, comm *rcce.Comm) {
		ue := comm.UE(c.ID)
		addr := c.Alloc(nBytes)
		for i := 0; i < msgs; i++ {
			if c.ID == 0 {
				send(ue, c, addr)
			} else {
				recv(ue, c, addr)
			}
		}
	})
}

func probeRCCE(m map[string]float64, reps int) {
	model := timing.Default()
	const msgs = 400
	const vec = paperN * 8
	plain := func(nBytes int) (func(*rcce.UE, *scc.Core, scc.Addr), func(*rcce.UE, *scc.Core, scc.Addr)) {
		return func(ue *rcce.UE, _ *scc.Core, a scc.Addr) { ue.Send(1, a, nBytes) },
			func(ue *rcce.UE, _ *scc.Core, a scc.Addr) { ue.Recv(0, a, nBytes) }
	}
	pol := rcce.DefaultPolicy()
	costs := lwnb.Costs(model)
	robustSend := func(ue *rcce.UE, _ *scc.Core, a scc.Addr) {
		if err := ue.SendRobust(costs, pol, 1, a, vec); err != nil {
			panic("probe: " + err.Error())
		}
	}
	robustRecv := func(ue *rcce.UE, _ *scc.Core, a scc.Addr) {
		if err := ue.RecvRobust(costs, pol, 0, a, vec); err != nil {
			panic("probe: " + err.Error())
		}
	}
	perMsg := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / msgs }

	m["rcce.sendrecv_small_ns"] = minOf(reps, func() float64 { s, r := plain(32); return perMsg(messages(msgs, 32, s, r)) })
	m["rcce.sendrecv_552_ns"] = minOf(reps, func() float64 { s, r := plain(vec); return perMsg(messages(msgs, vec, s, r)) })
	m["rcce.nb_sendrecv_552_ns"] = minOf(reps, func() float64 {
		return perMsg(onCores(2, func(c *scc.Core, comm *rcce.Comm) {
			lib := lwnb.New(comm.UE(c.ID))
			addr := c.Alloc(vec)
			for i := 0; i < msgs; i++ {
				if c.ID == 0 {
					lib.Wait(lib.ISend(1, addr, vec))
				} else {
					lib.Wait(lib.IRecv(0, addr, vec))
				}
			}
		}))
	})
	m["rcce.robust_sendrecv_552_ns"] = minOf(reps, func() float64 { return perMsg(messages(msgs, vec, robustSend, robustRecv)) })

	const barriers = 50
	m["rcce.barrier48_us"] = minOf(reps, func() float64 {
		d := onCores(model.NumCores(), func(c *scc.Core, comm *rcce.Comm) {
			ue := comm.UE(c.ID)
			for i := 0; i < barriers; i++ {
				ue.Barrier()
			}
		})
		return d.Seconds() * 1e6 / barriers
	})

	// Allocations per message as the slope between two message counts,
	// which cancels what the chip and the processes cost.
	allocsPerMsg := func(send, recv func(*rcce.UE, *scc.Core, scc.Addr)) float64 {
		count := func(n int) float64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			messages(n, vec, send, recv)
			runtime.ReadMemStats(&after)
			return float64(after.Mallocs - before.Mallocs)
		}
		return (count(5*msgs) - count(msgs)) / (4 * msgs)
	}
	s, r := plain(vec)
	m["rcce.sendrecv_allocs"] = allocsPerMsg(s, r)
	m["rcce.robust_allocs"] = allocsPerMsg(robustSend, robustRecv)
}

func probeCollectives(m map[string]float64, reps int) {
	model := timing.Default()
	np := model.NumCores()
	for _, algo := range healAlgos {
		cfg := core.ConfigBalanced
		if algo == "mpb" {
			cfg = core.ConfigMPB
		}
		var virt simtime.Duration
		m["core.allreduce552."+algo+".host_ms"] = minOf(reps, func() float64 {
			t0 := time.Now()
			lat, ok := bench.MeasureAlgorithm(model, cfg, core.KindAllreduce, algo, np, paperN, 1)
			if !ok {
				panic("probe: allreduce algorithm " + algo + " is not applicable on the full chip")
			}
			virt = lat
			return time.Since(t0).Seconds() * 1e3
		})
		m["core.allreduce552."+algo+".virt_us"] = virt.Micros()
	}
	m["rckmpi.allreduce552_host_ms"] = minOf(reps, func() float64 {
		t0 := time.Now()
		bench.Measure(model, bench.OpAllreduce, bench.Stack{Name: "RCKMPI", RCKMPI: true}, paperN, 1)
		return time.Since(t0).Seconds() * 1e3
	})
}

func probeSynth(m map[string]float64, reps int) {
	model := timing.Default()
	var table *synth.Table
	m["synth.table_parse_ms"] = minOf(reps, func() float64 {
		t0 := time.Now()
		t, err := synth.DefaultTable()
		if err != nil {
			panic("probe: " + err.Error())
		}
		table = t
		return time.Since(t0).Seconds() * 1e3
	})
	m["synth.enumerate_ms"] = minOf(reps, func() float64 {
		t0 := time.Now()
		if _, err := synth.Enumerate(model, "broadcast", model.NumCores(), 64, synth.Options{}); err != nil {
			panic("probe: " + err.Error())
		}
		return time.Since(t0).Seconds() * 1e3
	})
	m["synth.compile_us"] = minOf(reps, func() float64 {
		t0 := time.Now()
		for _, e := range table.Entries {
			if _, err := synth.Compile(e.Sched, "probe"); err != nil {
				panic("probe: " + err.Error())
			}
		}
		return time.Since(t0).Seconds() * 1e6 / float64(len(table.Entries))
	})
}

// probeGCMC separates the application's start-up from its cycles by the
// slope between a one-cycle and a three-cycle run.
func probeGCMC(m map[string]float64) {
	run := func(cycles int) float64 {
		p := gcmc.DefaultParams()
		p.Cycles = cycles
		t0 := time.Now()
		bench.RunGCMC(timing.Default(), bench.GCMCStacks()[4], p)
		return time.Since(t0).Seconds() * 1e3
	}
	one, three := run(1), run(3)
	cycle := (three - one) / 2
	m["gcmc.cycle_host_ms"] = cycle
	m["gcmc.init_host_ms"] = one - cycle
}

func probeFaultMetricsTrace(m map[string]float64, reps int) {
	model := timing.Default()
	horizon := simtime.Microseconds(800)
	const plans = 200
	m["fault.plan_us"] = minOf(reps, func() float64 {
		t0 := time.Now()
		for i := 0; i < plans; i++ {
			fault.Random(int64(i), 16, horizon, model)
		}
		return time.Since(t0).Seconds() * 1e6 / plans
	})

	base := make([]float64, paperN)
	pol := rcce.DefaultPolicy()
	hardened := core.Config{Transport: core.TransportLightweight, Balanced: true, Recovery: &pol}
	// allreduce is the host time of build+run of one checked Allreduce.
	allreduce := func(cfg core.Config, fp *fault.Plan, instrument bool) float64 {
		return minOf(reps, func() float64 {
			out, err := runChipAllreduce(model, cfg, fp, base, instrument)
			if err != nil {
				panic("probe: " + err.Error())
			}
			return (out.build + out.run).Seconds()
		})
	}
	// An installed plan that never fires: what the hooks cost on the
	// fault-free path.
	bare := allreduce(hardened, nil, false)
	m["fault.install_overhead_pct"] = 100 * (allreduce(hardened, fault.NewPlan(), false) - bare) / bare
	plain := allreduce(core.ConfigBalanced, nil, false)
	m["metrics.overhead_pct"] = 100 * (allreduce(core.ConfigBalanced, nil, true) - plain) / plain

	run := bench.MeasureInstrumented(model, bench.OpAllreduce, bench.Stack{Name: "balanced", Cfg: core.ConfigBalanced}, paperN, 1)
	m["trace.export_ms"] = minOf(reps, func() float64 {
		t0 := time.Now()
		if err := trace.WriteChromeTrace(io.Discard, run.Spans, nil); err != nil {
			panic("probe: " + err.Error())
		}
		return time.Since(t0).Seconds() * 1e3
	})
}

// runChipAllreduce is oracleAllreduce under an optional fault plan,
// without spans.
func runChipAllreduce(model *timing.Model, cfg core.Config, fp *fault.Plan, base []float64, instrument bool) (repOut, error) {
	n := len(base)
	return runChip(nil, model, fp, instrument, func(c *scc.Core, comm *rcce.Comm) {
		x := core.NewCtx(comm.UE(c.ID), cfg)
		src := c.AllocF64(n)
		dst := c.AllocF64(n)
		c.WriteF64s(src, base)
		if err := x.Allreduce(src, dst, n, core.Sum); err != nil {
			panic(err)
		}
		x.Release()
	})
}

func probeBenchFabricFacade(m map[string]float64, reps int) {
	model := timing.Default()
	sizes := []int{paperN}
	cells := float64(len(bench.StacksFor(bench.OpBroadcast)))
	panel := func(r *bench.Runner) float64 {
		t0 := time.Now()
		r.Panel(model, bench.OpBroadcast, sizes, 1)
		return time.Since(t0).Seconds()
	}
	one := panel(serial)
	m["bench.cells_per_s_serial"] = cells / one
	m["bench.parallel_speedup"] = one / panel(bench.NewRunner(runtime.GOMAXPROCS(0)))

	var virt simtime.Duration
	m["fabric.hier_allreduce_host_ms"] = minOf(reps, func() float64 {
		t0 := time.Now()
		virt = bench.MeasureHier(model, 2, "", bench.OpAllreduce, paperN, 1)
		return time.Since(t0).Seconds() * 1e3
	})
	m["fabric.hier_allreduce_virt_us"] = virt.Micros()

	// The public façade: what a program outside this module pays.
	m["sccsim.run48_host_ms"] = minOf(reps, func() float64 {
		t0 := time.Now()
		sys := sccsim.New(sccsim.WithStack(sccsim.StackLightweightBalanced))
		err := sys.Run(func(r *sccsim.Rank) {
			src, dst := r.AllocF64(paperN), r.AllocF64(paperN)
			if err := r.Allreduce(src, dst, paperN); err != nil {
				panic(err)
			}
		})
		if err != nil {
			panic("probe: " + err.Error())
		}
		return time.Since(t0).Seconds() * 1e3
	})
}

// probe10k holds the probes that need a large chip; each runs once.
func probe10k(m map[string]float64) {
	big := timing.Topology(100, 100, 1)
	t0 := time.Now()
	rcce.NewComm(scc.New(big))
	m["scc.build_us_per_core_10k"] = time.Since(t0).Seconds() * 1e6 / float64(big.NumCores())
	m["core.barrier10k_virt_us"] = bench.MeasureFootprint(big).BarrierTicks.Micros()

	mid := timing.Topology(32, 32, 1)
	cfg := core.ConfigBalanced
	cfg.Selector = core.Tuned() // the paper heuristic picks ring at 1,024 cores: O(np^2) exchanges
	t0 = time.Now()
	if _, err := runChipAllreduce(mid, cfg, nil, make([]float64, paperN), false); err != nil {
		panic("probe: " + err.Error())
	}
	m["core.allreduce_1k_host_ms"] = time.Since(t0).Seconds() * 1e3
}
