package sccsim

import (
	"fmt"
	"slices"

	"scc/internal/core"
	"scc/internal/fabric"
	"scc/internal/fault"
	"scc/internal/metrics"
	"scc/internal/rcce"
	"scc/internal/rckmpi"
	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
)

// ErrInvalid marks user errors (bad counts, out-of-range roots). All
// collective methods return it wrapped instead of panicking.
var ErrInvalid = core.ErrInvalid

// ErrCrossChip marks collectives that do not span chips: on a multi-chip
// System (WithChips > 1) only Allreduce, AllreduceOp, Broadcast and
// Barrier run system-wide; the rest return this typed error.
var ErrCrossChip = core.ErrCrossChip

// RecoveryPolicy bounds the hardened protocol's waits: Timeout for the
// first attempt, doubled after every timeout, and MaxRetries before a
// peer is declared unreachable.
type RecoveryPolicy = rcce.Policy

// DefaultRecoveryPolicy returns the standard hardened-protocol policy.
func DefaultRecoveryPolicy() RecoveryPolicy { return rcce.DefaultPolicy() }

// HealPolicy bounds the self-healing runtime: Detect is the hardened
// transport's policy (and the wait budget toward already-suspected
// peers), Member the longer budget toward members in good standing
// during votes and membership agreement, MaxRounds the cap on
// reconfigure/re-execute cycles per collective call.
type HealPolicy = core.HealPolicy

// DefaultHealPolicy returns the tuned self-healing defaults.
func DefaultHealPolicy() HealPolicy { return core.DefaultHealPolicy() }

// HealReport summarizes self-healing activity: outcome votes, committed
// membership agreements, re-executions, the communicator epoch, the
// detection time (the first wait that gave up on a peer) and the last
// agreement time.
type HealReport = core.RecoveryReport

// Typed failure errors, testable with errors.Is.
var (
	// ErrUnreachable: a peer stayed silent past the hardened protocol's
	// retry budget (the raw detection signal).
	ErrUnreachable = rcce.ErrUnreachable
	// ErrCoreDead: a core died mid-run and, with no recovery enabled,
	// the survivors stalled on its silent flags.
	ErrCoreDead = scc.ErrCoreDead
	// ErrEvicted: the agreed survivor view excludes this rank.
	ErrEvicted = core.ErrEvicted
	// ErrNoQuorum: membership agreement could not reach a majority of
	// the previous group.
	ErrNoQuorum = core.ErrNoQuorum
	// ErrHealGiveUp: the self-healing loop exhausted its rounds.
	ErrHealGiveUp = core.ErrHealGiveUp
)

// FaultPlan schedules deterministic faults on the simulated chip; build
// one with NewFaultPlan or RandomFaultPlan and install it with
// WithFaults.
type FaultPlan = fault.Plan

// Fault is one scheduled fault; which fields matter depends on Kind
// (see the FaultKind constants).
type Fault = fault.Fault

// FaultKind enumerates the fault classes a plan can inject.
type FaultKind = fault.Kind

// The fault classes, re-exported so programs outside this module can
// build plans (internal/fault is not importable from there).
const (
	FaultLinkStall  FaultKind = fault.LinkStall
	FaultFlagDrop   FaultKind = fault.FlagDrop
	FaultMPBDrop    FaultKind = fault.MPBDrop
	FaultMPBCorrupt FaultKind = fault.MPBCorrupt
	FaultCoreStall  FaultKind = fault.CoreStall
	FaultCoreDie    FaultKind = fault.CoreDie
)

// NewFaultPlan returns an empty plan; chain Add(Fault{...}) to fill it.
func NewFaultPlan() *FaultPlan { return fault.NewPlan() }

// RandomFaultPlan draws n recoverable faults (link stalls, flag drops,
// MPB drops and corruptions) uniformly over the horizon from a seeded
// generator; two calls with equal arguments yield identical plans.
func RandomFaultPlan(seed int64, n int, horizon Duration) *FaultPlan {
	return fault.Random(seed, n, horizon, timing.Default())
}

// Duration is virtual time on the simulated chip. It converts to wall
// units with Micros, Millis and Seconds. Duration doubles as an
// absolute virtual timestamp (Fault.At, Rank.Now).
type Duration = simtime.Duration

// Microseconds returns n microseconds of virtual time.
func Microseconds(n int64) Duration { return simtime.Microseconds(n) }

// Addr addresses a rank's private memory.
type Addr = scc.Addr

// Stack selects the communication stack, in the order the paper's
// figures list them.
type Stack int

// The measured stacks of the paper.
const (
	// StackBlocking is plain RCCE + RCCE_comm: blocking send/receive
	// with odd-even ordering (the baseline all speedups refer to).
	StackBlocking Stack = iota
	// StackIRCCE relaxes synchronization with iRCCE's non-blocking
	// primitives (Sec. IV-A).
	StackIRCCE
	// StackLightweight uses the paper's lightweight non-blocking
	// primitives (Sec. IV-B).
	StackLightweight
	// StackLightweightBalanced adds load-balanced block partitioning
	// (Sec. IV-C).
	StackLightweightBalanced
	// StackMPB additionally runs Allreduce directly on the MPBs with
	// double buffering (Sec. IV-D).
	StackMPB
	// StackRCKMPI is the MPICH-based comparator (Sec. III).
	StackRCKMPI
)

// String names the stack like the paper's figure legends.
func (s Stack) String() string {
	switch {
	case s == StackRCKMPI:
		return "RCKMPI"
	case s < StackBlocking || s > StackRCKMPI:
		return fmt.Sprintf("Stack(%d)", int(s))
	}
	return s.coreConfig().Name()
}

// Stacks lists all six stacks in presentation order.
func Stacks() []Stack {
	return []Stack{StackRCKMPI, StackBlocking, StackIRCCE,
		StackLightweight, StackLightweightBalanced, StackMPB}
}

// coreConfig maps a Stack to the collectives configuration: the five
// core stacks are declared in the order of core.Configs (not meaningful
// for StackRCKMPI, and config.validate rejects stacks outside Stacks()).
func (s Stack) coreConfig() core.Config { return core.Configs()[s] }

// Selector is the per-call algorithm-selection policy of the registry
// layer; install one with WithSelector. Build them with Fixed,
// PaperHeuristic or Tuned.
type Selector = core.Selector

// Fixed returns a selector that always picks the named registry
// algorithm; collectives for which the name is not registered or not
// applicable fall back to the paper heuristic (see WithAlgorithm).
func Fixed(name string) Selector { return core.Fixed(name) }

// PaperHeuristic returns the paper's selection policy (the default):
// binomial trees below the 512-byte short-message threshold, the
// MPB-direct ring where StackMPB applies, the block-partitioned ring
// otherwise.
func PaperHeuristic() Selector { return core.PaperHeuristic() }

// Tuned returns the measured decision-table selector backed by the
// committed tuner output (regenerate with `sccbench -tune`).
func Tuned() Selector { return core.Tuned() }

// AlgorithmNames lists the registered algorithms for op ("allreduce",
// "broadcast" or "reduce"), in registration order. Unknown ops return
// nil.
func AlgorithmNames(op string) []string {
	k, err := core.ParseOpKind(op)
	if err != nil {
		return nil
	}
	return core.AlgorithmNames(k)
}

// Metrics is a frozen snapshot of a System's hardware and protocol
// counters: per-core time split by protocol phase, MPB and cache event
// counts, per-mesh-link utilization and per-collective breakdowns. It
// marshals to JSON directly and renders itself with WriteJSON, WriteCSV
// and WriteTable.
type Metrics = metrics.Snapshot

// config collects construction options.
type config struct {
	model    *timing.Model
	bugFixed bool
	stack    Stack
	chips    int
	faults   *fault.Plan
	recovery *rcce.Policy
	selfheal *core.HealPolicy
	selector core.Selector
	metrics  bool
}

// validate is the one place where option combinations are judged: it
// returns an error wrapping ErrInvalid for a geometry the simulator
// cannot build, for a Fixed selector naming no registered algorithm and
// for every subsystem that is single-chip scoped but was combined with
// WithChips(k > 1).
func (c *config) validate() error {
	invalid := func(format string, args ...any) error {
		return fmt.Errorf("sccsim: %w: %s", ErrInvalid, fmt.Sprintf(format, args...))
	}
	if c.model == nil {
		return invalid("nil timing model")
	}
	if err := c.model.Validate(); err != nil {
		return invalid("%v", err)
	}
	if !slices.Contains(Stacks(), c.stack) {
		return invalid("WithStack: unknown stack %d", int(c.stack))
	}
	if err := core.CheckSelector(c.selector); err != nil {
		return fmt.Errorf("sccsim: WithSelector: %w", err)
	}
	if c.chips <= 1 {
		return nil
	}
	switch {
	case c.stack == StackRCKMPI:
		return invalid("WithChips: StackRCKMPI is single-chip only")
	case c.faults != nil:
		return invalid("WithChips: fault plans are single-chip only")
	case c.selfheal != nil:
		return invalid("WithChips: self-healing is single-chip only")
	case c.metrics:
		return invalid("WithChips: metrics are single-chip only")
	case c.model.FabricBytesPerMeshCycle <= 0:
		return invalid("WithChips: fabric width must be positive, got %d", c.model.FabricBytesPerMeshCycle)
	}
	return nil
}

// Option customizes a System.
type Option func(*config)

// WithStack selects the communication stack (default
// StackLightweightBalanced, the paper's best general-purpose
// configuration).
func WithStack(s Stack) Option { return func(c *config) { c.stack = s } }

// WithModel supplies a custom timing model (default timing.Default(),
// the paper's standard preset: 533 MHz cores, 800 MHz mesh and DRAM).
func WithModel(m *timing.Model) Option { return func(c *config) { c.model = m } }

// WithTopology builds the chip as an arbitrary rows x cols tile mesh
// with coresPerTile cores per tile, derived from the paper's calibrated
// model: latency constants are unchanged while the MPB flag layout and
// per-core MPB size are resized for the new core count (see
// timing.Topology). WithTopology(4, 6, 2) is the paper's default chip.
// An impossible geometry is a typed error (ErrInvalid) from Run.
func WithTopology(rows, cols, coresPerTile int) Option {
	return func(c *config) { c.model = timing.Topology(rows, cols, coresPerTile) }
}

// WithChips joins k identical chips into one system through the
// inter-chip fabric (see internal/fabric): one gateway core per chip,
// Allreduce/Broadcast/Barrier run hierarchically (intra-chip phase,
// gateway exchange, intra-chip phase) and rank IDs become system-global
// (Rank.ID in [0, NumCores)). k <= 1 is the plain single-chip system.
// Multi-chip systems support the RCCE-based stacks, WithRecovery and
// WithSelector (or WithAlgorithm), which picks the algorithm of the
// intra-chip phases; combined with StackRCKMPI, WithFaults,
// WithSelfHealing or WithMetrics (those subsystems are single-chip
// scoped) Run returns a typed error (ErrInvalid).
func WithChips(k int) Option { return func(c *config) { c.chips = k } }

// WithHardwareBugFixed removes the SCC's local-MPB erratum workaround,
// probing the paper's prediction that fixed silicon would make the
// MPB-direct Allreduce win clearly (Sec. IV-D).
func WithHardwareBugFixed() Option { return func(c *config) { c.bugFixed = true } }

// WithFaults installs a deterministic fault plan on the chip: the
// scheduled link stalls, lost or corrupted MPB writes and core faults
// perturb the hardware model exactly as seeded, so runs stay
// reproducible tick for tick.
func WithFaults(p *FaultPlan) Option { return func(c *config) { c.faults = p } }

// WithAlgorithm pins every Allreduce, Broadcast and Reduce to the named
// registry algorithm ("ring", "tree", "recdouble", "mpb", "linear"; see
// AlgorithmNames). A name that no collective registers (a typo, or the
// dispatched "hier") makes Run return ErrInvalid; a call the algorithm
// does not serve, or is not applicable to, falls back to the paper
// heuristic. Shorthand for WithSelector(Fixed(name)).
func WithAlgorithm(name string) Option { return WithSelector(Fixed(name)) }

// WithSelector installs an algorithm-selection policy for the
// registry-dispatched collectives (default PaperHeuristic). It has no
// effect on StackRCKMPI, which bypasses the registry entirely.
func WithSelector(sel Selector) Option { return func(c *config) { c.selector = sel } }

// WithTuned selects algorithms from the committed tuner-measured
// decision table instead of the paper heuristic. Shorthand for
// WithSelector(Tuned()).
func WithTuned() Option { return WithSelector(Tuned()) }

// WithMetrics attaches a metrics registry to the chip: every run then
// counts MPB traffic, cache events, flag synchronization, mesh-link
// utilization and the per-phase time split, retrievable with
// System.Metrics or Result.Metrics. Collection only reads simulator
// state and never adds simulated work, so enabling it changes no
// virtual-time result (pinned down by TestMetricsDoNotPerturbTiming).
func WithMetrics() Option { return func(c *config) { c.metrics = true } }

// WithRecovery runs the selected stack over the hardened protocol
// (sequence numbers, checksums, bounded waits, retransmit with backoff):
// collectives then return errors instead of hanging when faults exceed
// the retry budget. It has no effect on StackRCKMPI and disables the
// MPB-direct Allreduce fast path.
func WithRecovery(pol RecoveryPolicy) Option {
	return func(c *config) { p := pol; c.recovery = &p }
}

// WithSelfHealing runs the selected stack under the self-healing
// collective runtime: a hardened-transport wait whose retry budget runs
// out is the in-band detection, collectives that hit an unreachable peer
// vote on the outcome, agree on the survivor membership over the MPB
// (no oracle — the runtime discovers who died), adopt a fresh
// communicator epoch, and re-execute on the agreed group. It implies
// WithRecovery(pol.Detect) unless WithRecovery is given explicitly, has
// no effect on StackRCKMPI, and disables the MPB-direct Allreduce fast
// path (which is not hardened). Healing state — the first give-up, the
// agreed member set, the epoch — persists across Run calls on one System.
func WithSelfHealing(pol HealPolicy) Option {
	return func(c *config) { p := pol; c.selfheal = &p }
}

// System is one simulated SCC — or, with WithChips(k > 1), k of them
// joined by the inter-chip fabric — ready to run SPMD programs.
type System struct {
	cfg config
	// err is config.validate's verdict. A System built from invalid
	// options is inert: fab is nil, accessors return zero values, and
	// Run/RunResult return err without simulating anything.
	err error
	// fab holds the chips, their communicators and the shared engine; a
	// single chip is the 1-chip fabric.
	fab *fabric.System
	// healers persist per core across Run calls (nil without
	// WithSelfHealing): the first give-up, the agreed member set and the
	// communicator epoch are durable state of the runtime, not of one
	// program.
	healers []*core.Healer
}

// New builds a simulated SCC. Options default to the paper's hardware
// and the lightweight balanced stack. New never fails: options that do
// not describe a buildable system (an impossible geometry, a
// single-chip subsystem combined with WithChips) yield an inert System
// whose Run and RunResult return the typed error (ErrInvalid).
func New(opts ...Option) *System {
	cfg := config{model: timing.Default(), stack: StackLightweightBalanced}
	for _, o := range opts {
		o(&cfg)
	}
	s := &System{cfg: cfg, err: cfg.validate()}
	if s.err != nil {
		return s
	}
	if cfg.bugFixed {
		m := *cfg.model
		m.HardwareBugFixed = true
		cfg.model = &m
	}
	s.fab = fabric.New(cfg.model, max(cfg.chips, 1))
	// Metrics, faults and self-healing are single-chip scoped (validate
	// rejected them otherwise), so chip 0 is the chip.
	chip := s.fab.Chips[0]
	if cfg.metrics {
		chip.SetMetrics(metrics.New(chip.NumCores()))
	}
	if cfg.faults != nil {
		fault.Install(chip, cfg.faults)
	}
	if cfg.selfheal != nil {
		s.healers = make([]*core.Healer, chip.NumCores())
	}
	return s
}

// NumCores returns the total rank count: the core count of the chip
// (48 on the paper's default geometry) times the chip count.
func (s *System) NumCores() int {
	if s.fab == nil {
		return 0
	}
	return s.fab.NumCores()
}

// Chips returns how many chips the system spans (1 without WithChips).
func (s *System) Chips() int {
	if s.fab == nil {
		return 0
	}
	return s.fab.NumChips()
}

// Model exposes the timing model in use.
func (s *System) Model() *timing.Model {
	if s.fab == nil {
		return nil
	}
	return s.fab.Model()
}

// Stack returns the configured communication stack.
func (s *System) Stack() Stack { return s.cfg.stack }

// Run executes program on every core simultaneously (SPMD) and blocks
// until the virtual machine is idle. It returns the simulation error
// (nil, deadlock, or a propagated panic from the program) or, for a
// System built from invalid options, the validation error. A System can
// run several programs in sequence; virtual time keeps advancing. On a
// multi-chip system the program runs on every core of every chip, with
// system-global rank IDs.
func (s *System) Run(program func(r *Rank)) error {
	if s.err != nil {
		return s.err
	}
	s.fab.Launch(func(chip int, c *scc.Core) {
		program(s.newRank(chip, c))
	})
	return s.fab.Run()
}

// Elapsed reports the system's virtual time.
func (s *System) Elapsed() Duration {
	if s.fab == nil {
		return 0
	}
	return s.fab.Now()
}

// Metrics returns a snapshot of everything counted so far, or nil when
// the System was built without WithMetrics. Snapshots are independent:
// taking one does not reset the counters, and later runs do not mutate
// snapshots already taken.
func (s *System) Metrics() *Metrics {
	if !s.cfg.metrics || s.fab == nil {
		return nil
	}
	return s.fab.Chips[0].Metrics().Snapshot()
}

// Heal aggregates the self-healing activity of all ranks so far, or
// nil when the System was built without WithSelfHealing. Per-core vote
// counts are summed; global-event counts (reconfigurations,
// re-executions, evictions — every member observes the same committed
// events) and the epoch are maxima; FirstSuspectAt is the first wait on
// any core that gave up on a peer (detection) and LastAgreeAt the latest
// committed agreement (see core.RecoveryReport.Merge).
func (s *System) Heal() *HealReport {
	if s.healers == nil {
		return nil
	}
	agg := HealReport{FirstSuspectAt: -1, LastAgreeAt: -1}
	for _, h := range s.healers {
		if h != nil {
			agg.Merge(h.Report())
		}
	}
	return &agg
}

// Result describes one completed RunResult call.
type Result struct {
	elapsed Duration
	metrics *Metrics
	heal    *HealReport
}

// Elapsed is the virtual time the program took (from launch to the last
// core going idle), excluding any earlier runs on the same System.
func (r *Result) Elapsed() Duration { return r.elapsed }

// Metrics is the cumulative metrics snapshot taken right after the run,
// or nil without WithMetrics.
func (r *Result) Metrics() *Metrics { return r.metrics }

// Heal is the aggregated self-healing report taken right after the run,
// or nil without WithSelfHealing (see System.Heal for the aggregation
// rules).
func (r *Result) Heal() *HealReport { return r.heal }

// RunResult is Run plus measurement: it executes the program and
// returns how long it took in virtual time together with a metrics
// snapshot (when WithMetrics is active). The error is Run's error.
func (s *System) RunResult(program func(r *Rank)) (*Result, error) {
	t0 := s.Elapsed()
	err := s.Run(program)
	return &Result{elapsed: s.Elapsed() - t0, metrics: s.Metrics(), heal: s.Heal()}, err
}

// Rank is the per-core handle inside a Run program: private memory,
// compute-time charging, and the collective operations of the selected
// stack.
type Rank struct {
	core *scc.Core
	ue   *rcce.UE
	// coll is what every collective method calls: the rank's *core.Ctx,
	// the RCKMPI library (an rckmpi.Lib, which validates like the core
	// stacks), or — for a rank whose context could not be built, i.e.
	// one an earlier membership agreement evicted — the typed error
	// itself (refused).
	coll core.Collectives
	// gid and gn are the system-global rank ID and rank count; on a
	// single chip they equal the core ID and core count. chipIdx is
	// which chip the rank lives on (0 on a single chip).
	gid, gn, chipIdx int
}

// newRank is the one rank constructor: chip ci's core c, on whatever
// stack, recovery, self-healing and fabric placement the System was
// configured with.
func (s *System) newRank(ci int, c *scc.Core) *Rank {
	perChip := s.fab.Model().NumCores()
	r := &Rank{
		core:    c,
		ue:      s.fab.Comms[ci].UE(c.ID),
		gid:     ci*perChip + c.ID,
		gn:      s.fab.NumCores(),
		chipIdx: ci,
	}
	if s.cfg.stack == StackRCKMPI {
		r.coll = rckmpi.New(r.ue)
		return r
	}
	cfg := s.cfg.stack.coreConfig()
	cfg.Recovery = s.cfg.recovery
	cfg.Selector = s.cfg.selector
	cfg.SelfHeal = s.cfg.selfheal
	var o core.CtxOpts
	if s.fab.NumChips() > 1 {
		// The context carries the chip's fabric port, so Allreduce/
		// Broadcast/Barrier dispatch to the hierarchical composition.
		o.Port = s.fab.Port(ci)
	}
	if s.healers != nil {
		o.Healer = s.healers[c.ID] // nil on the first Run: the context makes one
	}
	x, err := core.NewCtxWith(r.ue, cfg, o)
	if err != nil {
		r.coll = refused{err}
		return r
	}
	if s.healers != nil {
		s.healers[c.ID] = x.Healer()
	}
	r.coll = x
	return r
}

// refused stands in for the collectives of a rank that has no context:
// every operation returns the error that said why (ErrEvicted).
type refused struct{ err error }

func (e refused) Barrier() error                                          { return e.err }
func (e refused) Allreduce(src, dst Addr, n int, op core.Op) error        { return e.err }
func (e refused) Reduce(root int, src, dst Addr, n int, op core.Op) error { return e.err }
func (e refused) Broadcast(root int, addr Addr, n int) error              { return e.err }
func (e refused) Allgather(src Addr, nPer int, dst Addr) error            { return e.err }
func (e refused) Alltoall(src, dst Addr, nPer int) error                  { return e.err }
func (e refused) Scatter(root int, src Addr, nPer int, dst Addr) error    { return e.err }
func (e refused) Gather(root int, src Addr, nPer int, dst Addr) error     { return e.err }
func (e refused) Scan(src, dst Addr, n int, op core.Op) error             { return e.err }
func (e refused) ReduceScatter(src, dst Addr, n int, op core.Op) ([]core.Block, error) {
	return nil, e.err
}

// ID returns this rank's system-global number, in [0, N()). On a single
// chip it is the core ID; on a multi-chip system chip c's core k is
// rank c*coresPerChip + k.
func (r *Rank) ID() int { return r.gid }

// N returns the number of ranks across the whole system.
func (r *Rank) N() int { return r.gn }

// Chip returns which chip this rank lives on (0 on a single chip).
func (r *Rank) Chip() int { return r.chipIdx }

// Now returns the rank's current virtual time.
func (r *Rank) Now() Duration { return Duration(r.core.Now()) }

// AllocF64 reserves private memory for n float64 values.
func (r *Rank) AllocF64(n int) Addr { return r.core.AllocF64(n) }

// WriteF64s stores src at addr (cache-priced).
func (r *Rank) WriteF64s(addr Addr, src []float64) { r.core.WriteF64s(addr, src) }

// ReadF64s loads len(dst) values from addr (cache-priced).
func (r *Rank) ReadF64s(addr Addr, dst []float64) { r.core.ReadF64s(addr, dst) }

// ComputeCycles charges n core clock cycles of pure computation.
func (r *Rank) ComputeCycles(n int64) { r.core.ComputeCycles(n) }

// Profile returns the rank's instrumentation counters.
func (r *Rank) Profile() scc.Profile { return r.core.Prof() }

// Barrier synchronizes all ranks. It can only fail under WithRecovery,
// when a peer stays silent past the retry budget.
func (r *Rank) Barrier() error { return r.coll.Barrier() }

// Allreduce sums n float64 values element-wise across all ranks,
// leaving the full result at dst on every rank.
func (r *Rank) Allreduce(src, dst Addr, n int) error {
	return r.coll.Allreduce(src, dst, n, core.Sum)
}

// AllreduceOp is Allreduce with a custom associative operator.
func (r *Rank) AllreduceOp(src, dst Addr, n int, op func(a, b float64) float64) error {
	return r.coll.Allreduce(src, dst, n, op)
}

// Reduce reduces to the root rank only.
func (r *Rank) Reduce(root int, src, dst Addr, n int) error {
	return r.coll.Reduce(root, src, dst, n, core.Sum)
}

// Broadcast distributes n values at addr from root to every rank.
func (r *Rank) Broadcast(root int, addr Addr, n int) error {
	return r.coll.Broadcast(root, addr, n)
}

// Allgather concatenates each rank's nPer values into dst (N()*nPer,
// rank-ordered) on every rank.
func (r *Rank) Allgather(src Addr, nPer int, dst Addr) error {
	return r.coll.Allgather(src, nPer, dst)
}

// Alltoall exchanges nPer-value blocks between every pair of ranks.
func (r *Rank) Alltoall(src, dst Addr, nPer int) error {
	return r.coll.Alltoall(src, dst, nPer)
}

// ReduceScatter reduces element-wise and scatters blocks; dst receives
// this rank's block of the partition.
func (r *Rank) ReduceScatter(src, dst Addr, n int) error {
	_, err := r.coll.ReduceScatter(src, dst, n, core.Sum)
	return err
}

// Scatter distributes block q of the root's src buffer (N()*nPer
// values) to rank q's dst. src is only read on the root. (RCKMPI
// implements scatter as a degenerate alltoall through its channel.)
func (r *Rank) Scatter(root int, src Addr, nPer int, dst Addr) error {
	return r.coll.Scatter(root, src, nPer, dst)
}

// Gather collects each rank's nPer values into the root's dst buffer,
// rank-ordered. dst is only written on the root.
func (r *Rank) Gather(root int, src Addr, nPer int, dst Addr) error {
	return r.coll.Gather(root, src, nPer, dst)
}

// Scan computes an inclusive prefix sum: rank k's dst receives the
// element-wise sum of ranks 0..k. Only available on the RCCE-based
// stacks (RCKMPI's scan is out of the comparator's scope).
func (r *Rank) Scan(src, dst Addr, n int) error {
	return r.coll.Scan(src, dst, n, core.Sum)
}

// Recovery reports this rank's accumulated hardened-protocol statistics
// (all zero unless WithRecovery is active and faults occurred).
func (r *Rank) Recovery() rcce.RecoveryStats { return r.ue.Recovery() }

// HealReport returns this rank's self-healing activity, or nil without
// WithSelfHealing. Its FirstSuspectAt is the first wait of this rank,
// in any Run so far, that gave up on a peer.
func (r *Rank) HealReport() *HealReport {
	x, ok := r.coll.(*core.Ctx)
	if !ok || x.Healer() == nil {
		return nil
	}
	rep := x.Healer().Report()
	return &rep
}

// SetFrequencyDivider changes this rank's core clock divider
// (RCCE_power-style DVFS; the SCC derives tile clocks from a 1600 MHz
// root, divider 3 = the 533 MHz standard preset). It returns the new
// frequency in MHz. Compute charges and the energy estimate scale
// accordingly; the mesh and memory stay in their own clock domain.
func (r *Rank) SetFrequencyDivider(div int) float64 {
	return r.core.SetFrequencyDivider(div)
}

// FrequencyMHz reports the rank's current core clock.
func (r *Rank) FrequencyMHz() float64 { return r.core.FrequencyMHz() }

// EnergyEstimate reports the rank's accumulated compute energy in
// preset-power-seconds (1.0 = one second of compute at 533 MHz).
func (r *Rank) EnergyEstimate() float64 { return r.core.EnergyEstimate() }
