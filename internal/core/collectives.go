package core

import (
	"errors"
	"fmt"

	"scc/internal/fabric"
	"scc/internal/rcce"
	"scc/internal/scc"
)

// ErrInvalid marks user errors (bad counts, bad roots, malformed block
// layouts). Collectives return it wrapped instead of panicking, so a
// simulated program can degrade gracefully.
var ErrInvalid = errors.New("invalid argument")

// Op is an associative binary reduction operator over float64.
type Op func(a, b float64) float64

// Built-in reduction operators.
var (
	Sum  Op = func(a, b float64) float64 { return a + b }
	Prod Op = func(a, b float64) float64 { return a * b }
	Max  Op = func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	}
	Min Op = func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	}
)

// Config selects which of the paper's optimization steps are active.
type Config struct {
	// Transport picks the point-to-point layer (Sec. IV-A/B).
	Transport TransportKind
	// Balanced enables the load-balanced block partitioning (Sec. IV-C).
	Balanced bool
	// MPBDirect enables the MPB-resident double-buffered Allreduce
	// (Sec. IV-D). It only affects Allreduce and implies the ring
	// phases run on MPB buffers instead of private memory.
	MPBDirect bool
	// Recovery, when non-nil, runs the transport over the hardened
	// protocol (sequence numbers, checksums, bounded waits, retransmit
	// with backoff): collectives then return errors instead of hanging
	// when faults exceed the retry budget. The MPB-direct Allreduce is
	// not hardened; it falls back to the staged path under Recovery.
	Recovery *rcce.Policy
	// SelfHeal, when non-nil, runs the collectives under the
	// self-healing loop (selfheal.go): in-band failure detection,
	// outcome votes, agreed membership and epoched re-execution —
	// no oracle tells the survivors who died. It implies Recovery
	// (defaulting to SelfHeal.Detect when Recovery is nil), since
	// detection is fed by the hardened transport's bounded waits.
	SelfHeal *HealPolicy
	// Selector picks the algorithm per collective call (see
	// selector.go). nil means PaperHeuristic, the pre-registry
	// behavior; an unknown or inapplicable pick also falls back to the
	// heuristic, so a Selector can never make a collective fail.
	Selector Selector
}

// Name renders the configuration like the paper's figure legends.
func (c Config) Name() string {
	if c.MPBDirect {
		return "MPB-based Allreduce"
	}
	if c.Balanced {
		return c.Transport.String() + ", balanced"
	}
	return c.Transport.String()
}

// The paper's five measured configurations, in presentation order.
var (
	ConfigBlocking    = Config{Transport: TransportBlocking}
	ConfigIRCCE       = Config{Transport: TransportIRCCE}
	ConfigLightweight = Config{Transport: TransportLightweight}
	ConfigBalanced    = Config{Transport: TransportLightweight, Balanced: true}
	ConfigMPB         = Config{Transport: TransportLightweight, Balanced: true, MPBDirect: true}
)

// Configs lists the paper's measured configurations in order.
func Configs() []Config {
	return []Config{ConfigBlocking, ConfigIRCCE, ConfigLightweight, ConfigBalanced, ConfigMPB}
}

// Collectives is the operation set of a stack, with *Ctx's signatures:
// the façade's ranks and the measurement harness call a *Ctx or, for
// the RCKMPI comparator, an rckmpi.Lib through it.
type Collectives interface {
	Barrier() error
	Allreduce(src, dst scc.Addr, n int, op Op) error
	Reduce(root int, src, dst scc.Addr, n int, op Op) error
	Broadcast(root int, addr scc.Addr, n int) error
	Allgather(src scc.Addr, nPer int, dst scc.Addr) error
	Alltoall(src, dst scc.Addr, nPer int) error
	ReduceScatter(src, dst scc.Addr, n int, op Op) ([]Block, error)
	Scatter(root int, src scc.Addr, nPer int, dst scc.Addr) error
	Gather(root int, src scc.Addr, nPer int, dst scc.Addr) error
	Scan(src, dst scc.Addr, n int, op Op) error
}

// Ctx is the per-core collectives context: one UE plus its transport
// endpoint and scratch buffers. Create one per core inside the simulated
// program via NewCtx (full chip) or NewCtxWith (survivor set, fabric
// placement, persistent healer).
type Ctx struct {
	ue  *rcce.UE
	ep  Endpoint
	cfg Config
	// grp restricts the collective to a member subset; nil means all
	// cores. All ring/tree/partition logic runs on group ranks. Under
	// self-healing the healer rewrites grp at each committed
	// membership agreement.
	grp *Group

	// healer, when non-nil, wraps every collective call in the
	// detection/vote/reconfigure/re-execute loop of selfheal.go.
	healer *Healer

	// port, when non-nil, makes Allreduce/Broadcast/Barrier span a
	// multi-chip system through the hierarchical composition (see
	// hier.go); hierInner caches its chip-local sub-context.
	port      *fabric.Port
	hierInner *Ctx

	// scratch private-memory vectors for ring partials, sized lazily.
	curAddr, rbufAddr scc.Addr
	scratchLen        int

	// Memoized partition: collectives over the same shape (the common
	// case — every rep of a sweep cell) share one read-only block list.
	// Safe because Block slices are never mutated after construction.
	// The host staging vectors are not the context's: they are the
	// core's (scc.Core.ScratchF64), recycled with the chip.
	partBuf      []Block
	partN, partP int
	partBal      bool
}

// Release drops the context's partition memo and its multi-chip
// sub-context. The context must not be used afterwards. Calling it is
// optional: the host scratch a context reduces through belongs to the
// core and is recycled by scc.Chip.Release.
func (x *Ctx) Release() {
	x.partBuf = nil
	x.partN, x.partP, x.partBal = 0, 0, false
	x.hierInner = nil
}

// withSelfHealDefaults normalizes a self-healing configuration:
// policies are filled from DefaultHealPolicy and Recovery — required to
// feed the failure detector — defaults to SelfHeal.Detect.
func (c Config) withSelfHealDefaults() Config {
	if c.SelfHeal == nil {
		return c
	}
	p := c.SelfHeal.withDefaults()
	c.SelfHeal = &p
	if c.Recovery == nil {
		r := p.Detect
		c.Recovery = &r
	}
	return c
}

// CtxOpts are the optional ingredients of a context; the zero value is
// the plain full-chip, single-chip one.
type CtxOpts struct {
	// Group restricts the collectives to a member subset (the
	// failure-aware mode: typically Survivors of the dead set). The UE
	// must be a member.
	Group *Group
	// Port is the chip's endpoint in a multi-chip fabric.System; nil is
	// the plain chip (a 1-chip system has no ports). A multi-chip
	// context does not self-heal: Port excludes Healer and
	// cfg.SelfHeal.
	Port *fabric.Port
	// Healer is a persistent self-healing state machine (the façade
	// keeps one per core across Runs: the first wait that gave up on a
	// peer, the agreed member set and the epoch survive a Run
	// boundary). The context starts on the healer's current member set,
	// which takes the place of Group, and on the healer's policy unless
	// cfg.SelfHeal is set.
	Healer *Healer
}

// NewCtxWith is the one constructor: every context — full chip, group,
// fabric-placed, healing — is built here. It returns ErrInvalid for an
// unknown transport kind, a group the UE is not a member of and a
// fabric port combined with self-healing, and ErrEvicted for a core the
// persistent healer's last agreement excluded.
func NewCtxWith(ue *rcce.UE, cfg Config, o CtxOpts) (*Ctx, error) {
	g, h := o.Group, o.Healer
	if o.Port != nil && (h != nil || cfg.SelfHeal != nil) {
		return nil, fmt.Errorf("core: %w: a multi-chip context does not self-heal", ErrInvalid)
	}
	if h != nil {
		if h.evicted != nil {
			return nil, h.evicted
		}
		if cfg.SelfHeal == nil {
			p := h.pol
			cfg.SelfHeal = &p
		}
		h.Bind(ue)
		var err error
		if g, err = h.groupFor(); err != nil {
			return nil, err
		}
	} else if g != nil && !g.Contains(ue.ID()) {
		return nil, fmt.Errorf("core: %w: core %d is not a member of the group", ErrInvalid, ue.ID())
	}
	cfg = cfg.withSelfHealDefaults()
	x := &Ctx{ue: ue, cfg: cfg, grp: g, port: o.Port, healer: h, scratchLen: -1}
	var err error
	if x.ep, err = newEndpoint(ue, cfg, x); err != nil {
		return nil, err
	}
	if h == nil && cfg.SelfHeal != nil {
		x.healer = NewHealer(ue, *cfg.SelfHeal)
		if g != nil {
			x.healer.seedMembers(g.Members())
		}
	}
	return x, nil
}

// NewCtx builds a collectives context for one UE, spanning all cores of
// its chip. Without options the only error NewCtxWith can return is an
// unknown transport kind, a programmer error, so NewCtx panics on it.
func NewCtx(ue *rcce.UE, cfg Config) *Ctx {
	x, err := NewCtxWith(ue, cfg, CtxOpts{})
	if err != nil {
		panic(err)
	}
	return x
}

// Healer returns the self-healing state machine, or nil when the
// context is not self-healing.
func (x *Ctx) Healer() *Healer { return x.healer }

// UE returns the underlying unit of execution.
func (x *Ctx) UE() *rcce.UE { return x.ue }

// NP returns the communicator size (group size, or the whole chip).
func (x *Ctx) NP() int {
	if x.grp != nil {
		return x.grp.Size()
	}
	return x.ue.NumUEs()
}

// Rank returns this core's rank within the communicator.
func (x *Ctx) Rank() int {
	if x.grp != nil {
		return x.grp.RankOf(x.ue.ID())
	}
	return x.ue.ID()
}

// Member translates a communicator rank to a core ID.
func (x *Ctx) Member(r int) int {
	if x.grp != nil {
		return x.grp.Member(r)
	}
	return r
}

// RootRank validates a root core ID for collective fn and returns its
// communicator rank.
func (x *Ctx) RootRank(fn string, root int) (int, error) {
	if x.grp != nil {
		r := x.grp.RankOf(root)
		if r < 0 {
			return 0, fmt.Errorf("core: %s: %w: root %d is not a group member", fn, ErrInvalid, root)
		}
		return r, nil
	}
	if root < 0 || root >= x.ue.NumUEs() {
		return 0, fmt.Errorf("core: %s: %w: root %d outside [0,%d)", fn, ErrInvalid, root, x.ue.NumUEs())
	}
	return root, nil
}

// collective is the one door every collective call comes in through.
// In this order: argument validation (a negative count, a malformed
// per-rank layout — ErrInvalid before anything is simulated), the typed
// ErrCrossChip refusal for an operation that has no hierarchical
// composition, and the self-healing loop around body. body is one
// attempt: whatever depends on the membership — group size, root rank,
// block layout, algorithm pick (and with it the traced span, which is
// labelled with the algorithm) — is decided inside it, so a re-execution
// after the group shrank decides again for the survivors.
func (x *Ctx) collective(fn string, n int, spansChips bool, body func() error, layouts ...[]Block) error {
	if n < 0 {
		return fmt.Errorf("core: %s: %w: negative count %d", fn, ErrInvalid, n)
	}
	for _, blocks := range layouts {
		if err := validateBlocks(fn, blocks, x.NP()); err != nil {
			return err
		}
	}
	if !spansChips && x.MultiChip() {
		return fmt.Errorf("core: %s: %w", fn, ErrCrossChip)
	}
	if x.healer != nil {
		return x.healer.run(x, body)
	}
	return body()
}

// partitionFor returns the (read-only) partition for the given shape,
// reusing the previous result when the shape is unchanged.
func (x *Ctx) partitionFor(n, p int, balanced bool) []Block {
	if x.partBuf != nil && x.partN == n && x.partP == p && x.partBal == balanced {
		return x.partBuf
	}
	if cap(x.partBuf) < p {
		x.partBuf = make([]Block, p)
	}
	x.partBuf = x.partBuf[:p]
	partitionInto(x.partBuf, n, balanced)
	x.partN, x.partP, x.partBal = n, p, balanced
	return x.partBuf
}

// ensureScratch sizes the two ring scratch vectors to at least n
// elements.
func (x *Ctx) ensureScratch(n int) {
	if n <= x.scratchLen {
		return
	}
	x.curAddr = x.ue.Core().AllocF64(n)
	x.rbufAddr = x.ue.Core().AllocF64(n)
	x.scratchLen = n
}

func mod(a, p int) int { return ((a % p) + p) % p }

// maxBlockLen returns the largest block length of a partition.
func maxBlockLen(blocks []Block) int {
	m := 0
	for _, b := range blocks {
		if b.Len > m {
			m = b.Len
		}
	}
	return m
}

// ReduceInto computes dst[i] = op(a[i], b[i]) for n elements, charging
// cached private-memory reads/writes plus per-element FP work. a, b and
// dst are private addresses.
func (x *Ctx) ReduceInto(dst, a, b scc.Addr, n int, op Op) {
	if n == 0 {
		return
	}
	core := x.ue.Core()
	va, vb := core.ScratchF64(0, n), core.ScratchF64(1, n)
	core.ReadF64s(a, va)
	core.ReadF64s(b, vb)
	core.ComputeCycles(core.Chip().Model.ReducePerElementCoreCycles * int64(n))
	for i := range va {
		va[i] = op(va[i], vb[i])
	}
	core.WriteF64s(dst, va)
}

// CopyPrivate copies n elements between private addresses, with the
// usual cached read/write costs.
func (x *Ctx) CopyPrivate(dst, src scc.Addr, n int) {
	if n == 0 {
		return
	}
	core := x.ue.Core()
	v := core.ScratchF64(0, n)
	core.ReadF64s(src, v)
	core.WriteF64s(dst, v)
}

// ReduceScatter reduces p vectors of n elements element-wise and leaves
// block `me` of the result (per the active partitioning) at dst. It uses
// the bucket/ring algorithm of Fig. 2: p-1 rounds, each core pushing
// partial blocks to its right neighbor. dst must hold at least the
// largest block. It returns the partition used.
func (x *Ctx) ReduceScatter(src, dst scc.Addr, n int, op Op) (blocks []Block, err error) {
	err = x.collective("ReduceScatter", n, false, func() (e error) {
		blocks, e = x.reduceScatterBody(src, dst, n, op)
		return e
	})
	return blocks, err
}

func (x *Ctx) reduceScatterBody(src, dst scc.Addr, n int, op Op) ([]Block, error) {
	p := x.NP()
	me := x.Rank()
	blocks := x.partitionFor(n, p, x.cfg.Balanced)
	if p == 1 {
		x.CopyPrivate(dst, src, n)
		return blocks, nil
	}
	x.ensureScratch(maxBlockLen(blocks))
	right := x.Member(mod(me+1, p))
	left := x.Member(mod(me-1, p))

	for r := 0; r < p-1; r++ {
		sendIdx := mod(me-1-r, p)
		recvIdx := mod(me-2-r, p)
		sb, rb := blocks[sendIdx], blocks[recvIdx]
		sendAddr := x.curAddr
		if r == 0 {
			// First round sends the raw input block directly.
			sendAddr = src + scc.Addr(8*sb.Off)
		}
		if err := x.ep.Exchange(right, sendAddr, 8*sb.Len, left, x.rbufAddr, 8*rb.Len); err != nil {
			return nil, err
		}
		// Combine the received partial with my own contribution; the
		// result is next round's send (or the final block).
		x.ReduceInto(x.curAddr, x.rbufAddr, src+scc.Addr(8*rb.Off), rb.Len, op)
	}
	myBlock := blocks[me]
	x.CopyPrivate(dst, x.curAddr, myBlock.Len)
	return blocks, nil
}

// Allreduce reduces p vectors of n elements element-wise and leaves the
// full result at dst on every core. The algorithm — ring
// ReduceScatter+Allgather, binomial tree composition, recursive
// doubling, or the MPB-direct variant — is picked per call by the
// configured Selector (default: the paper's size heuristic).
func (x *Ctx) Allreduce(src, dst scc.Addr, n int, op Op) error {
	return x.collective("Allreduce", n, true, func() error { return x.allreduceBody(src, dst, n, op) })
}

// allreduceBody is one attempt: the group size, algorithm pick and
// execution all happen inside the healed region, so a re-execution
// after membership shrank re-selects for the survivor count.
func (x *Ctx) allreduceBody(src, dst scc.Addr, n int, op Op) error {
	if x.MultiChip() {
		return x.traced(KindAllreduce, hierName, func() error {
			return x.hierAllreduce(src, dst, n, op)
		})
	}
	if x.NP() == 1 {
		x.CopyPrivate(dst, src, n)
		return nil
	}
	a := x.selectAlg(KindAllreduce, n).(AllreduceAlgorithm)
	return x.traced(KindAllreduce, a.Name(), func() error {
		return a.Allreduce(x, src, dst, n, op)
	})
}

// Reduce reduces to a single root. dst is only meaningful on the root.
// The algorithm (ring ReduceScatter+gather, binomial tree, or the
// linear baseline) is picked per call by the configured Selector.
func (x *Ctx) Reduce(root int, src, dst scc.Addr, n int, op Op) error {
	return x.collective("Reduce", n, false, func() error { return x.reduceBody(root, src, dst, n, op) })
}

// reduceBody validates the root inside the healed region: if the root
// itself died, the re-execution surfaces a deterministic ErrInvalid on
// every survivor instead of retrying a rootless collective.
func (x *Ctx) reduceBody(root int, src, dst scc.Addr, n int, op Op) error {
	if _, err := x.RootRank("Reduce", root); err != nil {
		return err
	}
	if x.NP() == 1 {
		x.CopyPrivate(dst, src, n)
		return nil
	}
	a := x.selectAlg(KindReduce, n).(ReduceAlgorithm)
	return x.traced(KindReduce, a.Name(), func() error {
		return a.Reduce(x, root, src, dst, n, op)
	})
}

// Broadcast distributes n elements at addr from root to every core. The
// algorithm (scatter+allgather ring, binomial tree, or the linear
// baseline) is picked per call by the configured Selector.
func (x *Ctx) Broadcast(root int, addr scc.Addr, n int) error {
	return x.collective("Broadcast", n, true, func() error { return x.broadcastBody(root, addr, n) })
}

func (x *Ctx) broadcastBody(root int, addr scc.Addr, n int) error {
	if x.MultiChip() {
		// The root is a system-global core ID: chip root/NumUEs, local
		// core root%NumUEs (hierBroadcast decodes it the same way).
		if root < 0 || root >= x.GlobalNP() {
			return fmt.Errorf("core: Broadcast: %w: root %d outside [0,%d)",
				ErrInvalid, root, x.GlobalNP())
		}
		return x.traced(KindBroadcast, hierName, func() error {
			return x.hierBroadcast(root, addr, n)
		})
	}
	if _, err := x.RootRank("Broadcast", root); err != nil {
		return err
	}
	if x.NP() == 1 {
		return nil
	}
	a := x.selectAlg(KindBroadcast, n).(BroadcastAlgorithm)
	return x.traced(KindBroadcast, a.Name(), func() error {
		return a.Broadcast(x, root, addr, n)
	})
}

// paperChipCores is the paper chip's core count. Up to it a full-chip,
// fault-free Barrier is RCCE's central barrier and a tree Broadcast one
// rendezvous per edge, which Figs. 9-10 measured; above it rcce's tree
// primitives replace them (see treePrimitives).
const paperChipCores = 48

// treePrimitives reports whether the context runs rcce's BarrierTree
// and stage-once BroadcastTree: a full-chip, fault-free (no Recovery,
// hence no healer), single-chip context above the paper chip.
func (x *Ctx) treePrimitives() bool {
	return !x.MultiChip() && x.grp == nil && x.cfg.Recovery == nil && x.ue.NumUEs() > paperChipCores
}

// Barrier synchronizes the communicator. The full-chip, fault-free case
// delegates to RCCE's barriers (see paperChipCores); group or hardened
// contexts use the group barrier (bounded waits under Recovery).
func (x *Ctx) Barrier() error {
	return x.collective("Barrier", 0, true, x.barrierBody)
}

func (x *Ctx) barrierBody() error {
	if x.MultiChip() {
		return x.hierBarrier()
	}
	var members []int // nil: every core
	if x.grp != nil {
		members = x.grp.Members()
	}
	switch {
	case x.cfg.Recovery != nil:
		return x.ue.BarrierGroupRobust(members, *x.cfg.Recovery)
	case x.grp != nil:
		x.ue.BarrierGroup(members)
	case x.treePrimitives():
		x.ue.BarrierTree()
	default:
		x.ue.Barrier()
	}
	return nil
}
