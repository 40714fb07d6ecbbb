package main

import (
	"fmt"
	"math"
	"math/rand"

	"scc/internal/bench"
	"scc/internal/core"
	"scc/internal/fault"
	"scc/internal/gcmc"
	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
)

// A workload is a fixed, seed-generated list of units; a pass runs every
// unit once. Units call the layers through their public functions only
// and check what comes back.

// unitOut is what one unit reports.
type unitOut struct {
	// virtUS is the simulated latency of the unit in microseconds. It
	// must be identical in every pass.
	virtUS float64
}

type unit struct {
	id  string
	run func(tr *tracer) (unitOut, error)
}

// plan is one workload instantiated for one seed.
type plan struct {
	units []unit
	// rep builds the workload's representative unit from the benchmark's
	// own files (chip, comm, program, check), so the traced run can put
	// spans around each layer and read the modelled-chip counters.
	rep func(tr *tracer, instrument bool) (repOut, error)
	// paper returns the mean relative error against the paper's ratios
	// and how many ratios were compared; 0 ratios means the workload is
	// an extension the paper has no reference for (unvalidated).
	paper func() (errPct float64, ratios int)
}

type workload struct {
	name string
	why  string
	// passSeconds is the host time of one pass on the host the benchmark
	// was sized on; -seconds / passSeconds is the number of measured
	// passes, so the amount of measured work does not depend on how fast
	// the host happens to be during the run.
	passSeconds float64
	build       func(seed int64) *plan
}

func workloads() []workload {
	return []workload{
		{
			name:        "fig9_48",
			why:         "paper's Fig. 9: six collectives x every stack at n=552 on 48 cores; many short chip lifetimes, so event dispatch and chip construction dominate",
			passSeconds: 6.8,
			build:       buildFig9,
		},
		{
			name:        "gcmc_48",
			why:         "paper's Fig. 10 application under six stacks; one long chip lifetime per unit, host time is gcmc physics, so a simtime/scc speed-up must show no change here",
			passSeconds: 7.2,
			build:       buildGCMC,
		},
		{
			name:        "faults_48",
			why:         "Fig. R1 fault sweep + Fig. R2 self-heal: same simtime/rcce layers through timeouts, deregistration and the robust transport instead of plain signals",
			passSeconds: 5.0,
			build:       buildFaults,
		},
		{
			name:        "mesh10k_sync",
			why:         "Barrier + Broadcast on a 100x100 mesh: memory-bound (GC, allocation, 1 GB RSS); gcmc, fault and rckmpi do nothing here",
			passSeconds: 4.0,
			build:       buildMesh10k,
		},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// validated returns the model after Validate; the workloads' models are
// fixed, so an invalid one is a bug in the timing package.
func validated(m *timing.Model) *timing.Model {
	if err := m.Validate(); err != nil {
		panic(fmt.Sprintf("benchmarks: invalid model: %v", err))
	}
	return m
}

// serial is the runner every unit uses: one worker, so host time is the
// single-client closed loop the benchmark states.
var serial = bench.NewRunner(1)

const paperN = 552 // the application's Allreduce size, the paper's anchor

// ---- fig9_48 ----

// seededSize draws a vector size next to the paper's 552 that is not a
// multiple of 4, so the partial-line path runs. The window is narrow on
// purpose: runs with different seeds must do the same amount of work to
// within a fraction of the metric bounds.
func seededSize(rng *rand.Rand) int {
	sizes := []int{549, 550, 551, 553, 554, 555}
	return sizes[rng.Intn(len(sizes))]
}

func panelVirt(op bench.Op, panel []bench.Series) (float64, error) {
	if want := len(bench.StacksFor(op)); len(panel) != want {
		return 0, fmt.Errorf("%s panel has %d series, want %d", op, len(panel), want)
	}
	var sum float64
	for _, s := range panel {
		if len(s.Points) != 1 || s.Points[0].Latency <= 0 {
			return 0, fmt.Errorf("%s/%s: no positive latency", op, s.Stack.Name)
		}
		sum += s.Points[0].Latency.Micros()
	}
	return sum, nil
}

func latencyOf(panel []bench.Series, stack string) float64 {
	for _, s := range panel {
		if s.Stack.Name == stack && len(s.Points) == 1 {
			return s.Points[0].Latency.Micros()
		}
	}
	return 0
}

// bestOverBlocking is the Sec. V-A speedup: blocking over the fastest
// optimised stack that is neither RCKMPI nor MPB-direct.
func bestOverBlocking(panel []bench.Series) float64 {
	best := 0.0
	for _, s := range panel {
		if s.Stack.RCKMPI || s.Stack.Name == "blocking" || s.Stack.Cfg.MPBDirect || len(s.Points) != 1 {
			continue
		}
		if best == 0 || s.Points[0].Latency.Micros() < best {
			best = s.Points[0].Latency.Micros()
		}
	}
	if best == 0 {
		return 0
	}
	return latencyOf(panel, "blocking") / best
}

func meanRelErrPct(measured, paper []float64) (float64, int) {
	var sum float64
	for i := range paper {
		sum += math.Abs(measured[i]-paper[i]) / paper[i]
	}
	return 100 * sum / float64(len(paper)), len(paper)
}

func buildFig9(seed int64) *plan {
	rng := rand.New(rand.NewSource(seed))
	model := validated(timing.Default())
	nSeed := seededSize(rng)
	base := make([]float64, nSeed)
	for i := range base {
		base[i] = rng.Float64()
	}
	panels := map[bench.Op][]bench.Series{}
	var seededPanel []bench.Series

	// Fig. 9 (f) first: set-up ends with the first unit, and the paper's
	// headline panel is the result a user waits for.
	ops := append([]bench.Op{bench.OpAllreduce}, bench.AllOps()[:len(bench.AllOps())-1]...)
	p := &plan{}
	for _, op := range ops {
		op := op
		p.units = append(p.units, unit{
			id: fmt.Sprintf("fig9/%s/n=%d", op, paperN),
			run: func(tr *tracer) (unitOut, error) {
				defer tr.end(tr.begin("bench.Panels"))
				panel := serial.Panels(model, []bench.Op{op}, []int{paperN}, 1)[0]
				panels[op] = panel
				v, err := panelVirt(op, panel)
				return unitOut{virtUS: v}, err
			},
		})
	}
	p.units = append(p.units, unit{
		id: fmt.Sprintf("fig9/allreduce/n=%d", nSeed),
		run: func(tr *tracer) (unitOut, error) {
			defer tr.end(tr.begin("bench.Panels"))
			seededPanel = serial.Panels(model, []bench.Op{bench.OpAllreduce}, []int{nSeed}, 1)[0]
			v, err := panelVirt(bench.OpAllreduce, seededPanel)
			return unitOut{virtUS: v}, err
		},
	})
	p.rep = func(tr *tracer, instrument bool) (repOut, error) {
		out, err := oracleAllreduce(tr, model, base, instrument)
		if err != nil {
			return out, err
		}
		// Two independent constructions of the same cell must agree.
		if want := latencyOf(seededPanel, "lightweight non-blocking, balanced"); want != 0 && out.virtUS != want {
			return out, fmt.Errorf("harness-built Allreduce(%d) took %.4fus, bench.Panels cell %.4fus", nSeed, out.virtUS, want)
		}
		return out, nil
	}
	p.units = append(p.units, unit{
		id: fmt.Sprintf("fig9/oracle-allreduce/n=%d", nSeed),
		run: func(tr *tracer) (unitOut, error) {
			out, err := p.rep(tr, false)
			return unitOut{virtUS: out.virtUS}, err
		},
	})
	p.paper = func() (float64, int) {
		bc := panels[bench.OpBroadcast]
		lw := latencyOf(bc, "lightweight non-blocking")
		if lw == 0 {
			return 0, 0
		}
		measured := []float64{
			bestOverBlocking(panels[bench.OpAllgather]),
			bestOverBlocking(panels[bench.OpAlltoall]),
			latencyOf(bc, "iRCCE") / lw,
			bestOverBlocking(panels[bench.OpReduce]),
			bestOverBlocking(panels[bench.OpAllreduce]),
		}
		// Sec. V-A as tabulated in EXPERIMENTS.md.
		return meanRelErrPct(measured, []float64{2.75, 1.6, 1.8, 1.6, 2.6})
	}
	return p
}

// oracleAllreduce is the harness-built unit of fig9_48: one balanced
// Allreduce on a fresh chip with the program shape of a Fig. 9 cell
// (barrier, warm-up, barrier, timed repetition), seeded input, and every
// core's result checked against a sum computed on the host.
func oracleAllreduce(tr *tracer, model *timing.Model, base []float64, instrument bool) (repOut, error) {
	n := len(base)
	np := model.NumCores()
	want := make([]float64, n)
	for i := range want {
		want[i] = float64(np)*base[i] + float64(np*(np+1)/2)
	}
	var latency simtime.Duration
	got := make([][]float64, np)
	out, err := runChip(tr, model, nil, instrument, func(c *scc.Core, comm *rcce.Comm) {
		ue := comm.UE(c.ID)
		x := core.NewCtx(ue, core.ConfigBalanced)
		big := n * np // Fig. 9 cells size their buffers for Alltoall
		src := c.AllocF64(big)
		dst := c.AllocF64(big)
		v := make([]float64, big)
		for i := 0; i < n; i++ {
			v[i] = base[i] + float64(c.ID+1)
		}
		c.WriteF64s(src, v)
		allreduce := func() {
			if err := x.Allreduce(src, dst, n, core.Sum); err != nil {
				panic(err) // fault-free chip: surfaces as the run's error
			}
		}
		ue.Barrier()
		allreduce()
		ue.Barrier()
		t0 := c.Now()
		allreduce()
		if c.ID == 0 {
			latency = c.Now() - t0
		}
		got[c.ID] = make([]float64, n)
		c.ReadF64s(dst, got[c.ID])
		x.Release()
	})
	if err != nil {
		return out, err
	}
	defer tr.end(tr.begin("bench.check"))
	out.virtUS = latency.Micros()
	for id, g := range got {
		for i := range want {
			if math.Abs(g[i]-want[i]) > 1e-9*math.Abs(want[i]) {
				return out, fmt.Errorf("allreduce: core %d element %d = %v, oracle %v", id, i, g[i], want[i])
			}
		}
	}
	return out, nil
}

// ---- gcmc_48 ----

const gcmcCycles = 4

type physics struct {
	n        int
	energy   float64
	accepted int
}

func buildGCMC(seed int64) *plan {
	model := validated(timing.Default())
	params := gcmc.DefaultParams()
	params.Cycles = gcmcCycles
	params.Seed = seed
	stacks := bench.GCMCStacks()
	results := make([]bench.GCMCResult, len(stacks))

	// checkPhysics holds every stack to the physics of the first: the
	// Markov chain is a function of the seed alone, never of the stack.
	checkPhysics := func(name string, got physics, attempted, allreduces int) error {
		first := physics{results[0].FinalN, results[0].FinalEnergy, results[0].Accepted}
		switch {
		case attempted != gcmcCycles:
			return fmt.Errorf("gcmc/%s: attempted %d moves, want %d", name, attempted, gcmcCycles)
		case allreduces < gcmcCycles:
			return fmt.Errorf("gcmc/%s: %d Allreduce calls for %d cycles", name, allreduces, gcmcCycles)
		case got.n <= 0 || math.IsNaN(got.energy) || math.IsInf(got.energy, 0):
			return fmt.Errorf("gcmc/%s: unphysical state N=%d E=%v", name, got.n, got.energy)
		case got != first:
			return fmt.Errorf("gcmc/%s: physics %+v differs from %s's %+v", name, got, stacks[0].Name, first)
		}
		return nil
	}

	p := &plan{}
	for i, st := range stacks {
		i, st := i, st
		p.units = append(p.units, unit{
			id: "gcmc/" + st.Name,
			run: func(tr *tracer) (unitOut, error) {
				defer tr.end(tr.begin("bench.RunGCMC"))
				r := bench.RunGCMC(model, st, params)
				results[i] = r
				err := checkPhysics(st.Name, physics{r.FinalN, r.FinalEnergy, r.Accepted}, r.Attempted, r.Allreduces)
				return unitOut{virtUS: r.WallTime.Micros()}, err
			},
		})
	}
	p.rep = func(tr *tracer, instrument bool) (repOut, error) {
		var res gcmc.Result
		out, err := runChip(tr, model, nil, instrument, func(c *scc.Core, comm *rcce.Comm) {
			x := core.NewCtx(comm.UE(c.ID), core.ConfigBalanced)
			r := gcmc.New(c, gcmc.CoreStack{Ctx: x}, comm.NumUEs(), params).Run()
			if c.ID == 0 {
				res = r
			}
		})
		if err != nil {
			return out, err
		}
		defer tr.end(tr.begin("bench.check"))
		out.virtUS = res.WallTime.Micros()
		out.counts["gcmc.allreduces"] = float64(res.CommAllreduce)
		if res.WallTime > 0 {
			out.counts["gcmc.wait_fraction"] = float64(res.FlagWaitTime) / float64(res.WallTime)
		}
		return out, checkPhysics("harness-built balanced", physics{res.FinalN, res.FinalEnergy, res.Stats.Accepted}, res.Stats.Attempted, res.CommAllreduce)
	}
	p.paper = func() (float64, int) {
		blocking := results[1].WallTime.Micros()
		if blocking == 0 {
			return 0, 0
		}
		var measured []float64
		for _, i := range []int{0, 2, 3, 4, 5} {
			measured = append(measured, results[i].WallTime.Micros()/blocking)
		}
		// Fig. 10 bars relative to blocking (EXPERIMENTS.md).
		return meanRelErrPct(measured, []float64{2.17, 0.904, 0.767, 0.719, 0.686})
	}
	return p
}

// ---- faults_48 ----

var (
	faultCounts = []int{0, 1, 2, 4, 8, 16}
	healAlgos   = []string{"ring", "tree", "recdouble", "linear", "mpb"}
	healFracs   = []float64{0.25, 0.5, 0.75}
	transports  = []core.TransportKind{core.TransportBlocking, core.TransportLightweight}
)

// faultSeedsPerPass is how many fault histories one pass sweeps: the
// seed and its successors. Several, because one history's timeouts move
// a sweep's host time by several percent.
const faultSeedsPerPass = 3

func buildFaults(seed int64) *plan {
	model := validated(timing.Default())
	np := model.NumCores()
	pol := rcce.DefaultPolicy()
	heal := core.DefaultHealPolicy()

	p := &plan{}
	for k := int64(0); k < faultSeedsPerPass; k++ {
		for _, kind := range transports {
			k, kind := k, kind
			p.units = append(p.units, unit{
				id: fmt.Sprintf("faults/r1/%s/seed+%d", kind, k),
				run: func(tr *tracer) (unitOut, error) {
					defer tr.end(tr.begin("bench.FaultSweepAlgo"))
					pts := serial.FaultSweepAlgo(model, kind, pol, "", seed+k, paperN, faultCounts)
					if len(pts) != len(faultCounts) {
						return unitOut{}, fmt.Errorf("fault sweep returned %d points, want %d", len(pts), len(faultCounts))
					}
					var out unitOut
					for i, pt := range pts {
						if pt.Errs != 0 || pt.Wrong != 0 || pt.Latency <= 0 || pt.Fired > faultCounts[i] {
							return out, fmt.Errorf("%d faults: errs=%d wrong=%d fired=%d latency=%d", faultCounts[i], pt.Errs, pt.Wrong, pt.Fired, pt.Latency)
						}
						out.virtUS += pt.Latency.Micros()
					}
					return out, nil
				},
			})
		}
	}
	for _, kind := range transports {
		for _, algo := range healAlgos {
			kind, algo := kind, algo
			p.units = append(p.units, unit{
				id: fmt.Sprintf("faults/r2/%s/%s", kind, algo),
				run: func(tr *tracer) (unitOut, error) {
					defer tr.end(tr.begin("bench.SelfHealSweep"))
					pts := serial.SelfHealSweep(model, kind, heal, []string{algo}, paperN, healFracs)
					if len(pts) != 1+len(healFracs) {
						return unitOut{}, fmt.Errorf("self-heal sweep returned %d points, want %d", len(pts), 1+len(healFracs))
					}
					var out unitOut
					for _, pt := range pts {
						survivors := np
						if pt.KillAt > 0 {
							survivors = np - 1 // the victim is not a survivor outcome
						}
						if pt.Errs != 0 || pt.Wrong != 0 || pt.Survivors != survivors || pt.Total <= 0 {
							return out, fmt.Errorf("kill at %d: errs=%d wrong=%d survivors=%d (want %d)", pt.KillAt, pt.Errs, pt.Wrong, pt.Survivors, survivors)
						}
						out.virtUS += pt.Total.Micros()
					}
					return out, nil
				},
			})
		}
	}
	p.rep = func(tr *tracer, instrument bool) (repOut, error) {
		return faultedAllreduce(tr, model, pol, heal, seed, instrument)
	}
	p.paper = func() (float64, int) { return 0, 0 }
	return p
}

// faultedAllreduce is the harness-built unit of faults_48: a hardened
// lightweight Allreduce under 16 seeded faults, then a self-healing one
// with a core killed mid-collective, each checked on every core.
func faultedAllreduce(tr *tracer, model *timing.Model, pol rcce.Policy, heal core.HealPolicy, seed int64, instrument bool) (repOut, error) {
	np := model.NumCores()
	sumWithout := func(excluded int) float64 {
		s := float64(np * (np + 1) / 2)
		if excluded >= 0 {
			s -= float64(excluded + 1)
		}
		return s
	}
	// allreduce runs one Allreduce under the plan and checks every core
	// but the victim against the sum of the group that committed.
	allreduce := func(cfg core.Config, fp *fault.Plan, victim int) (repOut, error) {
		var stats rcce.RecoveryStats
		firstSuspect, lastAgree := simtime.Time(-1), simtime.Time(-1)
		errs, wrong := 0, 0
		out, err := runChip(tr, model, fp, instrument, func(c *scc.Core, comm *rcce.Comm) {
			x := core.NewCtx(comm.UE(c.ID), cfg)
			src := c.AllocF64(paperN)
			dst := c.AllocF64(paperN)
			v := make([]float64, paperN)
			for i := range v {
				v[i] = float64(c.ID+1) + float64(i)
			}
			c.WriteF64s(src, v)
			cerr := x.Allreduce(src, dst, paperN, core.Sum)
			stats.Add(x.UE().Recovery())
			excluded := -1
			if h := x.Healer(); h != nil {
				rep := h.Report()
				if rep.Evicted > 0 {
					excluded = victim
				}
				if rep.FirstSuspectAt >= 0 && (firstSuspect < 0 || rep.FirstSuspectAt < firstSuspect) {
					firstSuspect = rep.FirstSuspectAt
				}
				if rep.LastAgreeAt > lastAgree {
					lastAgree = rep.LastAgreeAt
				}
			}
			if c.ID == victim {
				return
			}
			if cerr != nil {
				errs++
				return
			}
			got := make([]float64, paperN)
			c.ReadF64s(dst, got)
			members := np
			if excluded >= 0 {
				members--
			}
			for i := range got {
				if math.Abs(got[i]-(sumWithout(excluded)+float64(members*i))) > 1e-6 {
					wrong++
					return
				}
			}
		})
		if err != nil {
			return out, err
		}
		out.virtUS = out.elapsedUS
		out.counts["rcce.timeouts"] = float64(stats.Timeouts)
		out.counts["rcce.retransmits"] = float64(stats.Retransmits)
		if firstSuspect >= 0 && lastAgree > firstSuspect {
			out.counts["core.heal_agree_us"] = (lastAgree - firstSuspect).Micros()
		}
		if errs != 0 || wrong != 0 {
			return out, fmt.Errorf("hardened allreduce: %d cores erred, %d cores have wrong sums", errs, wrong)
		}
		return out, nil
	}

	fp := fault.Random(seed, 16, simtime.Microseconds(800), model)
	faulted, err := allreduce(core.Config{Transport: core.TransportLightweight, Balanced: true, Recovery: &pol}, fp, -1)
	if err != nil {
		return faulted, err
	}
	faulted.counts["fault.fired"] = float64(len(fp.Events()))

	victim := bench.HealVictimFor(np)
	kill := fault.NewPlan().Add(fault.Fault{Kind: fault.CoreDie, At: simtime.Time(simtime.Microseconds(400)), Core: victim})
	healed, err := allreduce(core.Config{Transport: core.TransportLightweight, Balanced: true, SelfHeal: &heal}, kill, victim)
	faulted.merge(healed)
	return faulted, err
}

// ---- mesh10k_sync ----

func buildMesh10k(seed int64) *plan {
	rng := rand.New(rand.NewSource(seed))
	model := validated(timing.Topology(100, 100, 1))
	root := rng.Intn(model.NumCores())
	payload := make([]float64, 8)
	for i := range payload {
		payload[i] = rng.Float64()
	}

	p := &plan{}
	p.units = append(p.units, unit{
		id: "mesh10k/footprint",
		run: func(tr *tracer) (unitOut, error) {
			defer tr.end(tr.begin("bench.MeasureFootprint"))
			fp := bench.MeasureFootprint(model)
			if fp.Cores != model.NumCores() || fp.BarrierTicks <= 0 || fp.BroadcastTicks <= 0 {
				return unitOut{}, fmt.Errorf("footprint: cores=%d barrier=%d broadcast=%d ticks", fp.Cores, fp.BarrierTicks, fp.BroadcastTicks)
			}
			return unitOut{virtUS: (fp.BarrierTicks + fp.BroadcastTicks).Micros()}, nil
		},
	})
	p.rep = func(tr *tracer, instrument bool) (repOut, error) {
		return seededBroadcast(tr, model, root, payload, instrument)
	}
	p.units = append(p.units, unit{
		id: fmt.Sprintf("mesh10k/broadcast/root=%d", root),
		run: func(tr *tracer) (unitOut, error) {
			out, err := p.rep(tr, false)
			return unitOut{virtUS: out.virtUS}, err
		},
	})
	p.paper = func() (float64, int) { return 0, 0 }
	return p
}

// seededBroadcast is the harness-built unit of mesh10k_sync: a Broadcast
// of a seeded payload from a seeded root, checked on all 10,000 cores.
func seededBroadcast(tr *tracer, model *timing.Model, root int, payload []float64, instrument bool) (repOut, error) {
	var latency simtime.Duration
	bad := 0
	out, err := runChip(tr, model, nil, instrument, func(c *scc.Core, comm *rcce.Comm) {
		x := core.NewCtx(comm.UE(c.ID), core.ConfigLightweight)
		buf := c.AllocF64(len(payload))
		if c.ID == root {
			c.WriteF64s(buf, payload)
		}
		t0 := c.Now()
		if err := x.Broadcast(root, buf, len(payload)); err != nil {
			panic(err) // fault-free chip: surfaces as the run's error
		}
		if c.ID == root {
			latency = c.Now() - t0
		}
		got := make([]float64, len(payload))
		c.ReadF64s(buf, got)
		for i := range got {
			if got[i] != payload[i] {
				bad++
				break
			}
		}
		x.Release()
	})
	if err != nil {
		return out, err
	}
	defer tr.end(tr.begin("bench.check"))
	out.virtUS = latency.Micros()
	if bad != 0 || latency <= 0 {
		return out, fmt.Errorf("broadcast from %d: %d of %d cores hold a wrong payload, latency %d ticks", root, bad, model.NumCores(), latency)
	}
	return out, nil
}
