// Package metrics is the simulator's observability layer: a
// zero-allocation-on-hot-path counter/histogram registry keyed by
// (core, directed mesh link, protocol phase).
//
// The paper's argument is latency-structural — flag-handshake round
// trips, mesh link contention, per-call software overhead — so the
// registry splits every core's virtual time into disjoint protocol
// phases (flag-wait, flag-sync, MPB transfer, private memory, software
// overhead, compute), counts the events behind each phase (MPB
// reads/writes, flag probes, cache hits/misses, request postings), and
// tracks per-directed-link busy and queued time on the mesh. A
// per-collective breakdown (one row per
// "allreduce[ring]"-style span) attributes those phases to individual
// collective calls, which is what the EXPERIMENTS.md "Where the cycles
// go" table is generated from.
//
// Recording never advances virtual time and never allocates on the hot
// path: phase and counter updates are increments into dense arrays
// indexed by core, phase and link; only the once-per-collective-call
// breakdown touches a map. Enabling metrics therefore cannot perturb a
// simulation — runs with and without a registry installed produce
// bit-identical virtual-time results (asserted by the determinism tests
// in internal/bench and the root package).
//
// A Registry is mutable state owned by one chip; Snapshot() freezes it
// into an exportable Snapshot with JSON, flat-CSV and human-readable
// table writers (see snapshot.go). Chrome-trace export of the span
// timeline lives in internal/trace.
package metrics

import (
	"math/bits"

	"scc/internal/simtime"
)

// Phase classifies where a core's virtual time went. Phases are
// disjoint: every tick a simulated program is charged lands in at most
// one phase, so per-core phase sums are directly comparable.
type Phase uint8

// The protocol phases.
const (
	// PhaseFlagWait is time spent blocked in WaitFlag / WaitFlagMatch /
	// WaitFlagsMatch — the paper's rcce_wait_until time.
	// The interval runs from wait entry to wake-up, so it includes the
	// probe reads issued while blocked (exactly matching the "wait-*"
	// trace spans).
	PhaseFlagWait Phase = iota
	// PhaseFlagSync is unblocked flag traffic: SetFlag, ProbeFlag, and
	// waits that found their flag already set.
	PhaseFlagSync
	// PhaseTransfer is bulk MPB data movement (MPBRead/MPBWrite line
	// transactions, including mesh link time and queueing).
	PhaseTransfer
	// PhaseMemory is private-memory time (L1/L2 hits, DRAM misses).
	PhaseMemory
	// PhaseOverhead is communication-library software time: per-call
	// entry costs, request management, partial-line penalties,
	// put/get copy loops, checksums and retransmission bookkeeping.
	PhaseOverhead
	// PhaseCompute is application compute (and the FP work of
	// reductions) charged through Core.ComputeCycles / Core.Compute.
	PhaseCompute

	NumPhases int = iota
)

var phaseNames = [NumPhases]string{
	"flag-wait", "flag-sync", "transfer", "memory", "overhead", "compute",
}

// String returns the stable snapshot/CSV name of the phase.
func (p Phase) String() string {
	if int(p) < NumPhases {
		return phaseNames[p]
	}
	return "phase?"
}

// PhaseNames lists the phase names in Phase order.
func PhaseNames() []string { return append([]string(nil), phaseNames[:]...) }

// Counter identifies one per-core event counter.
type Counter uint8

// The per-core counters. Tick-valued counters (SendTicks, RecvTicks,
// PutTicks, GetTicks) measure inclusive intervals of the corresponding
// operations; unlike phases they overlap (a Send interval contains
// transfer, flag and overhead time), so they do not sum with anything.
const (
	CtrMPBReads Counter = iota
	CtrMPBWrites
	CtrMPBBytesRead
	CtrMPBBytesWritten
	CtrFlagSets
	CtrFlagProbes // probe reads, incl. every probe inside wait loops
	CtrBlockedWaits
	CtrL1Hits
	CtrL1Misses
	CtrL2Hits
	CtrL2Misses
	CtrReqsPosted // non-blocking requests posted (isend/irecv)
	CtrReqWaitRounds
	CtrPendingReqsMax // high-water mark of request slots in flight at a post (max, not sum)
	CtrSlotDrains     // posts that first had to complete the request in their busy slot
	CtrSends
	CtrRecvs
	CtrSendTicks
	CtrRecvTicks
	CtrPuts
	CtrGets
	CtrPutTicks
	CtrGetTicks
	// Self-healing runtime counters (see internal/core/selfheal.go):
	// outcome votes, committed membership agreements and collective
	// re-executions.
	CtrVotes
	CtrVotesFailed
	CtrReconfigs
	CtrReexecs

	NumCounters int = iota
)

var counterNames = [NumCounters]string{
	"mpb-reads", "mpb-writes", "mpb-bytes-read", "mpb-bytes-written",
	"flag-sets", "flag-probes", "blocked-waits",
	"l1-hits", "l1-misses", "l2-hits", "l2-misses",
	"reqs-posted", "req-wait-rounds", "pending-reqs-max", "slot-drains",
	"sends", "recvs", "send-ticks", "recv-ticks",
	"puts", "gets", "put-ticks", "get-ticks",
	"votes", "votes-failed", "reconfigs", "reexecs",
}

// String returns the stable snapshot/CSV name of the counter.
func (c Counter) String() string {
	if int(c) < NumCounters {
		return counterNames[c]
	}
	return "counter?"
}

// linkState accumulates one directed mesh link's occupancy.
type linkState struct {
	busy      int64 // ticks the link was serializing packet bodies
	queued    int64 // ticks packet heads waited behind a busy link
	transfers int64 // packet traversals of this link
	contended int64 // traversals that queued
}

// maxHopBuckets bounds the hop histogram (the 6x4 mesh's longest XY
// route is 8 hops; 16 leaves headroom for bigger geometries).
const maxHopBuckets = 16

// numWaitBuckets bounds the log2 blocked-wait-duration histogram.
const numWaitBuckets = 40

// CollectiveStats accumulates the per-collective phase breakdown. One
// entry aggregates every per-core call of one (op, algorithm) pair,
// e.g. "allreduce[ring]": Calls counts per-core invocations (a
// full-chip collective adds NumCores calls), Ticks sums the inclusive
// per-core durations, and Phase sums the per-phase deltas observed
// across the calls.
type CollectiveStats struct {
	Calls int64
	Ticks int64
	Phase [NumPhases]int64
}

// Registry is the mutable per-chip metrics store. It is not safe for
// concurrent use; the simulation engine serializes all core processes,
// and each benchmark cell owns a private chip + registry.
type Registry struct {
	phase    [][NumPhases]int64   // [core][phase] ticks
	counters [][NumCounters]int64 // [core][counter]

	links     []linkState
	linkLabel func(int) string

	hopHist  [maxHopBuckets]int64  // transfers by route length
	waitHist [numWaitBuckets]int64 // blocked waits by log2(ticks)

	collectives map[string]*CollectiveStats
}

// New creates a registry for a chip with numCores cores. Link state is
// sized later by InitLinks (the mesh knows its own geometry).
func New(numCores int) *Registry {
	return &Registry{
		phase:       make([][NumPhases]int64, numCores),
		counters:    make([][NumCounters]int64, numCores),
		collectives: make(map[string]*CollectiveStats),
	}
}

// NumCores returns the registered core count.
func (r *Registry) NumCores() int { return len(r.phase) }

// InitLinks sizes the per-directed-link arrays and installs the label
// function used when snapshotting (index -> "(x,y)E"-style name).
// Called once by the mesh when the registry is attached.
func (r *Registry) InitLinks(n int, label func(int) string) {
	if len(r.links) != n {
		r.links = make([]linkState, n)
	}
	r.linkLabel = label
}

// AddPhase accrues d ticks of core's time to phase ph.
func (r *Registry) AddPhase(core int, ph Phase, d simtime.Duration) {
	r.phase[core][ph] += int64(d)
}

// PhaseRow returns a copy of core's per-phase tick row (used by the
// collective-span bookkeeping to compute before/after deltas).
func (r *Registry) PhaseRow(core int) [NumPhases]int64 { return r.phase[core] }

// Count increments core's counter c by 1.
func (r *Registry) Count(core int, c Counter) { r.counters[core][c]++ }

// CountN increments core's counter c by n.
func (r *Registry) CountN(core int, c Counter, n int64) { r.counters[core][c] += n }

// SetMax raises core's counter c to v if v is larger (gauge-style
// high-water marks such as CtrPendingReqsMax).
func (r *Registry) SetMax(core int, c Counter, v int64) {
	if v > r.counters[core][c] {
		r.counters[core][c] = v
	}
}

// LinkTransfer records one packet traversal of directed link li that
// serialized for busy ticks and waited queued ticks behind earlier
// traffic (queued == 0 for an uncontended crossing).
func (r *Registry) LinkTransfer(li int, busy, queued simtime.Duration) {
	l := &r.links[li]
	l.transfers++
	l.busy += int64(busy)
	if queued > 0 {
		l.contended++
		l.queued += int64(queued)
	}
}

// AddHops records one end-to-end transfer of the given route length.
func (r *Registry) AddHops(hops int) {
	if hops >= maxHopBuckets {
		hops = maxHopBuckets - 1
	}
	r.hopHist[hops]++
}

// ObserveWait records one blocked flag wait of duration d in the log2
// wait histogram.
func (r *Registry) ObserveWait(d simtime.Duration) {
	b := bits.Len64(uint64(d))
	if b >= numWaitBuckets {
		b = numWaitBuckets - 1
	}
	r.waitHist[b]++
}

// RecordCollective folds one core's traversal of one collective span
// into the per-(op,algorithm) breakdown: d is the inclusive duration
// and before/after are PhaseRow snapshots taken around the call. This
// is the only registry path that touches a map; it runs once per
// collective call per core, never per line or per probe.
func (r *Registry) RecordCollective(label string, d simtime.Duration, before, after [NumPhases]int64) {
	s := r.collectives[label]
	if s == nil {
		s = &CollectiveStats{}
		r.collectives[label] = s
	}
	s.Calls++
	s.Ticks += int64(d)
	for i := range s.Phase {
		s.Phase[i] += after[i] - before[i]
	}
}
