package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"scc/internal/metrics"
	"scc/internal/rcce"
	"scc/internal/simtime"
)

// Self-healing collective runtime: no oracle tells the survivors who
// died. Instead the runtime closes the loop in-band:
//
//  1. Detection. The hardened transport's bounded waits feed a per-peer
//     Detector (detector.go): a retry budget exhausted toward a peer
//     raises a suspicion, any later successful handshake clears it.
//     Suspicions are fallible local hints — a live core is routinely
//     suspected when a shared neighbor dies and stalls it — so they are
//     recorded (detection latency is a measured quantity) but never
//     filter membership or steer coordinator choice.
//
//  2. Outcome vote. After every wrapped collective each member reaches
//     the vote (its attempt either failed or completed); a flag-token
//     round over the MPB establishes whether *all* members succeeded.
//     Only a unanimous success commits the collective — otherwise
//     everyone proceeds to reconfiguration together, including members
//     whose own attempt happened to complete.
//
//  3. Membership agreement. Coordinator choice is attempt-indexed
//     rotation over the current member list — a pure function of shared
//     state, so every live member tries the same candidate at the same
//     attempt no matter how their local suspicion sets diverge. The
//     coordinator collects exact attempt-derived arrive tokens under a
//     deadline shared by the whole collection phase (dead members run
//     the clock down together instead of each consuming a private
//     budget), assembles the view from the arrivals, and publishes view
//     bitmap + epoch through each member's MPB line. Members stuck on a
//     different collective call (a dropped vote release can strand one)
//     ship their call sequence with the arrival; only the largest
//     same-call cohort enters the view, so desynchronized members are
//     evicted with a typed error instead of exchanging mismatched
//     payloads. Every phase of a failed attempt ends with an idle pad
//     to a fixed attempt-relative deadline, so the drift between
//     members stays bounded by their initial skew instead of
//     compounding across attempts.
//
//  4. Epoch adoption. Each member salts the hardened protocol's
//     checksums with the new epoch, restarts its sequence counters and
//     wipes its own data-protocol flag bytes (rcce.SetEpoch +
//     ResetProtocolFlags), so no stale chunk, ACK or progress byte of
//     the aborted attempt can be mistaken for fresh traffic. The epoch
//     barrier doubles as the commit point: only members that passed it
//     re-execute the collective on the agreed survivor group.
//
// Everything above runs on simulated cores over the MPB with priced
// flag traffic and deterministic timeouts, so same-seed runs are
// bit-identical and recovery cost is a measured quantity.

// Sentinel errors of the self-healing runtime.
var (
	// ErrEvicted: the agreed survivor view does not contain this core
	// (it was partitioned away from the quorum, or stranded on a
	// different collective call than the majority cohort).
	ErrEvicted = errors.New("core: evicted from agreed survivor group")
	// ErrNoQuorum: membership agreement could not assemble a majority of
	// the previous group.
	ErrNoQuorum = errors.New("core: no quorum for membership agreement")
	// ErrHealGiveUp: the vote/reconfigure/re-execute loop exceeded
	// HealPolicy.MaxRounds.
	ErrHealGiveUp = errors.New("core: self-healing rounds exhausted")
)

// HealPolicy bounds the self-healing runtime's waits and retries.
type HealPolicy struct {
	// Detect is the hardened-transport policy installed for the
	// collectives themselves: short, so a dead peer is given up on
	// quickly and the failure surfaces as ErrUnreachable.
	Detect rcce.Policy
	// Member's total budget is the agreement protocol's unit of time B:
	// collection phases run against a shared deadline of 2B, release
	// waits against 4B (vote) or 6B (membership), and a failed attempt
	// is padded to 7B. B must cover the worst-case skew between members
	// entering the protocol — a live member still burning its own
	// Detect budget toward the dead core — with ample margin.
	Member rcce.Policy
	// MaxRounds caps vote → reconfigure → re-execute cycles per
	// collective call before ErrHealGiveUp.
	MaxRounds int
}

// DefaultHealPolicy returns the tuned defaults used by the chaos soak
// and the faultbench self-healing sweeps. Detect carries jitter so the
// survivors' retransmit storms toward a dead core de-correlate. Its
// total budget (≈ 76 ms of virtual time) must exceed the slowest
// legitimate wait inside any collective — a linear-algorithm root
// serving 47 sequential 16 KB transfers keeps its last sender waiting
// ≈ 25 ms, and a shorter budget makes late ranks abort a merely busy
// root forever. Member is sized so its total budget (≈ 254 ms) dwarfs
// the worst-case entry skew (a peer's full Detect budget).
func DefaultHealPolicy() HealPolicy {
	return HealPolicy{
		Detect:    rcce.Policy{Timeout: simtime.Microseconds(300), Backoff: 2, MaxRetries: 7, Jitter: 4},
		Member:    rcce.Policy{Timeout: simtime.Microseconds(2000), Backoff: 2, MaxRetries: 6},
		MaxRounds: 8,
	}
}

func (p HealPolicy) withDefaults() HealPolicy {
	d := DefaultHealPolicy()
	if p.Detect == (rcce.Policy{}) {
		p.Detect = d.Detect
	}
	if p.Member == (rcce.Policy{}) {
		p.Member = d.Member
	}
	if p.MaxRounds <= 0 {
		p.MaxRounds = d.MaxRounds
	}
	return p
}

// RecoveryReport summarizes one core's self-healing activity.
type RecoveryReport struct {
	Suspicions  int64 // detector suspicion transitions
	Clears      int64 // suspicions later cleared (false alarms)
	Votes       int64 // outcome-vote rounds participated in
	VotesFailed int64 // votes that did not reach unanimous success
	Reconfigs   int64 // committed membership agreements
	Reexecs     int64 // collective re-executions after reconfiguration
	Evicted     int64 // members dropped across all reconfigurations

	Epoch          uint32       // current communicator epoch
	FirstSuspectAt simtime.Time // first suspicion ever (-1 = none)
	LastAgreeAt    simtime.Time // last committed agreement (-1 = none)
}

// Merge folds one core's report into a system-wide aggregate (start from
// RecoveryReport{FirstSuspectAt: -1, LastAgreeAt: -1}). Per-core activity
// counts (suspicions, clears, votes) are summed; global-event counts
// (reconfigurations, re-executions, evictions — every member observes
// the same committed events) and the epoch are maxima; FirstSuspectAt is
// the earliest suspicion on any core and LastAgreeAt the latest
// committed agreement.
func (a *RecoveryReport) Merge(r RecoveryReport) {
	a.Suspicions += r.Suspicions
	a.Clears += r.Clears
	a.Votes += r.Votes
	a.VotesFailed += r.VotesFailed
	a.Reconfigs = max(a.Reconfigs, r.Reconfigs)
	a.Reexecs = max(a.Reexecs, r.Reexecs)
	a.Evicted = max(a.Evicted, r.Evicted)
	a.Epoch = max(a.Epoch, r.Epoch)
	if r.FirstSuspectAt >= 0 && (a.FirstSuspectAt < 0 || r.FirstSuspectAt < a.FirstSuspectAt) {
		a.FirstSuspectAt = r.FirstSuspectAt
	}
	a.LastAgreeAt = max(a.LastAgreeAt, r.LastAgreeAt)
}

// Healer is one core's self-healing state machine. It persists across
// collective calls (and across façade Runs): suspicions, the agreed
// member set and the communicator epoch are durable, so a second
// failure starts from the already-shrunk group.
type Healer struct {
	ue  *rcce.UE
	det *Detector
	pol HealPolicy

	epoch   uint32
	members []int
	voteSeq uint32 // vote-token counter within the epoch
	collSeq uint32 // wrapped-collective call counter (mod 256 on the wire)
	active  bool   // reentrancy guard: algorithms call wrapped collectives
	// evicted is the verdict of the agreement that excluded this core. It
	// is final: every later collective, and every later context built on
	// this healer, gets it back instead of timing out against a group
	// that has moved on to another epoch.
	evicted error

	rep RecoveryReport

	// MPB payload scratch.
	bitmap  []byte
	viewBuf []int
	seqBuf  []byte // per-core call-sequence bytes read during coordination
}

// NewHealer builds a self-healing state machine for the UE, initially
// spanning all cores at epoch 0.
func NewHealer(ue *rcce.UE, pol HealPolicy) *Healer {
	n := ue.NumUEs()
	comm := ue.Comm()
	bl := comm.ViewBitmapBytes()
	if bl != (n+7)/8 || rcce.FlagSuspBase+bl != comm.FlagViewEpoch() ||
		comm.FlagViewEpoch()+4 > comm.FlagCollSeq() {
		panic(fmt.Sprintf("core: %d cores need a %d-byte suspicion bitmap plus epoch word; flag region ends at %d",
			n, bl, comm.FlagCollSeq()))
	}
	h := &Healer{
		ue:      ue,
		pol:     pol.withDefaults(),
		members: make([]int, n),
		bitmap:  make([]byte, bl),
		viewBuf: make([]int, 0, n),
		seqBuf:  make([]byte, n),
	}
	for i := range h.members {
		h.members[i] = i
	}
	h.det = newDetector(ue)
	h.rep.FirstSuspectAt = -1
	h.rep.LastAgreeAt = -1
	return h
}

// Bind re-attaches the healer to a fresh UE for the same core (the
// façade rebuilds UEs per Run) and re-applies the current epoch to the
// new UE's protocol state.
func (h *Healer) Bind(ue *rcce.UE) {
	h.ue = ue
	h.det.bind(ue)
	if h.epoch != 0 {
		ue.SetEpoch(h.epoch)
	}
}

// Detector exposes the failure detector (read-only use).
func (h *Healer) Detector() *Detector { return h.det }

// Epoch returns the current communicator epoch.
func (h *Healer) Epoch() uint32 { return h.epoch }

// Members returns the current agreed member set (a copy).
func (h *Healer) Members() []int { return append([]int(nil), h.members...) }

// Report returns the healing activity summary, folding in the
// detector's live counts.
func (h *Healer) Report() RecoveryReport {
	r := h.rep
	r.Suspicions = h.det.Suspicions()
	r.Clears = h.det.Clears()
	r.FirstSuspectAt = h.det.FirstSuspicionAt()
	r.Epoch = h.epoch
	return r
}

// seedMembers restricts the healer's initial membership (used when a
// context is built over an explicit group).
func (h *Healer) seedMembers(members []int) {
	h.members = append(h.members[:0], members...)
}

// groupFor materializes the current member set as a Group, or nil when
// it still spans all cores.
func (h *Healer) groupFor() (*Group, error) {
	if len(h.members) == h.ue.NumUEs() {
		return nil, nil
	}
	return NewGroup(h.members, h.ue.NumUEs())
}

// count bumps a self-healing metrics counter, if a registry is attached.
func (h *Healer) count(c metrics.Counter) {
	if reg := h.ue.Core().Metrics(); reg != nil {
		reg.Count(h.ue.ID(), c)
	}
}

// policyBudget returns the total wait budget pol grants across all its
// retries: the sum of the exponentially widened windows.
func policyBudget(pol rcce.Policy) simtime.Duration {
	total := simtime.Duration(0)
	w := pol.Timeout
	for i := 0; i <= pol.MaxRetries; i++ {
		total += w
		w *= simtime.Duration(pol.Backoff)
	}
	return total
}

// unit returns B, the agreement protocol's unit of time.
func (h *Healer) unit() simtime.Duration { return policyBudget(h.pol.Member) }

// waitUntil waits for pred on the flag byte at off until the absolute
// deadline. The deadline is shared by a whole collection phase: several
// missing peers run the clock down together instead of each consuming a
// private budget, which keeps the phase length — and with it the
// release-wait budgets of everyone else — independent of how many
// peers died. A timed-out wait pays one timeout check; a wait entered
// past the deadline degenerates to a single priced probe.
func (h *Healer) waitUntil(off int, deadline simtime.Time, pred func(byte) bool) (byte, bool) {
	c := h.ue.Core()
	if rem := deadline - c.Now(); rem > 0 {
		v, ok := c.WaitFlagMatch(off, rem, pred)
		if !ok {
			c.OverheadCycles(c.Chip().Model.OverheadTimeoutCheck)
		}
		return v, ok
	}
	v := c.ProbeFlag(off)
	return v, pred(v)
}

// padTo idles the core until absolute time t. Failure paths of one
// protocol attempt differ in length (a coordinator strikes out after
// its 2B collection, a follower only after its 6B release wait);
// padding every failed attempt to the same attempt-relative deadline
// keeps the members aligned, so the drift between them stays bounded
// by their initial skew instead of compounding attempt over attempt.
func (h *Healer) padTo(t simtime.Time) {
	c := h.ue.Core()
	if d := t - c.Now(); d > 0 {
		c.Compute(d)
	}
}

// quorum returns the minimum view size that may commit: a strict
// majority of the previous membership. Anything smaller could be the
// minority side of a partition — committing it risks two disjoint
// groups both "succeeding" — so sub-majority agreement returns
// ErrNoQuorum instead.
func (h *Healer) quorum(oldSize int) int { return oldSize/2 + 1 }

// arriveTok derives the membership arrive token for one agreement
// attempt. It is a pure function of shared state (epoch, attempt), so
// aligned members compute identical values and the coordinator matches
// arrivals exactly — no clearing, no change-detection races. 13 is
// coprime to 127, so consecutive attempts and epochs never alias; a
// stale flag from ≥127 attempts ago can alias (and at worst costs one
// failed attempt when the phantom member misses the epoch barrier).
func arriveTok(epoch uint32, attempt int) byte {
	return byte(1 + (epoch+uint32(attempt))*13%127)
}

// seqAfter reports whether call sequence a is ahead of b in the mod-256
// window.
func seqAfter(a, b byte) bool { return a != b && a-b < 128 }

// run executes body under the self-healing loop: every outermost call
// votes on its outcome, and anything short of unanimous success leads
// the members to agree on a survivor view, adopt a fresh epoch and
// re-execute. Nested collective calls (ring allreduce calls
// ReduceScatter, linear allreduce calls Reduce) pass through unwrapped —
// only the outermost call heals.
func (h *Healer) run(x *Ctx, body func() error) error {
	if h.active {
		return body()
	}
	if h.evicted != nil {
		return h.evicted
	}
	h.active = true
	h.collSeq++
	defer func() { h.active = false }()

	var err error
	for round := 0; ; round++ {
		err = body()
		if err != nil && !errors.Is(err, rcce.ErrUnreachable) {
			return err // deterministic user error: same on every member
		}
		if len(h.members) <= 1 {
			return err // nobody left to vote with
		}
		if h.vote(err == nil) && err == nil {
			return nil // unanimous success
		}
		if round+1 >= h.pol.MaxRounds {
			return fmt.Errorf("core: self-heal: %w: %d rounds at epoch %d (last error: %v)",
				ErrHealGiveUp, round+1, h.epoch, err)
		}
		if rerr := h.reconfigure(x); rerr != nil {
			return rerr
		}
		h.rep.Reexecs++
		h.count(metrics.CtrReexecs)
	}
}

// vote runs one outcome-vote round over the current members and reports
// whether all of them succeeded. The lowest member collects a per-member
// token (tok = success, tok|0x80 = failure) from each member's
// vote-arrive flag under a shared 2B deadline and publishes the verdict
// through the vote-release flags; members wait for the verdict until
// 4B. Tokens are derived from (epoch, voteSeq), so consecutive votes
// use distinct values and a stale flag can never satisfy the wait; the
// vote flags are wiped at epoch adoption, which kills the cross-epoch
// aliasing case. A member that cannot reach the collector treats the
// vote as failed (and suspects the collector), which safely funnels it
// into reconfiguration. A failed vote pads every member to the same
// 4B mark so they enter reconfiguration aligned.
func (h *Healer) vote(ok bool) bool {
	u, c := h.ue, h.ue.Core()
	comm := u.Comm()
	m := c.Chip().Model
	c.OverheadCycles(m.OverheadBlockingCall)
	t0 := c.Now()
	B := h.unit()

	h.voteSeq++
	tok := byte(1 + (h.epoch*31+h.voteSeq)%127)
	fail := tok | 0x80
	isVote := func(v byte) bool { return v == tok || v == fail }

	me := u.ID()
	root := h.members[0]
	h.rep.Votes++
	h.count(metrics.CtrVotes)

	agreed := false
	if me == root {
		all := ok
		deadline := t0 + 2*B
		for _, p := range h.members {
			if p == me {
				continue
			}
			v, got := h.waitUntil(comm.FlagAddr(root, p, rcce.FlagVoteArrive), deadline, isVote)
			if !got {
				h.det.Suspect(p)
				all = false
				continue
			}
			h.det.Clear(p)
			if v != tok {
				all = false
			}
		}
		rel := tok
		if !all {
			rel = fail
		}
		for _, p := range h.members {
			if p != me {
				c.SetFlag(comm.FlagAddr(p, root, rcce.FlagVoteRelease), rel)
			}
		}
		agreed = all
	} else {
		val := tok
		if !ok {
			val = fail
		}
		c.SetFlag(comm.FlagAddr(root, me, rcce.FlagVoteArrive), val)
		v, got := h.waitUntil(comm.FlagAddr(me, root, rcce.FlagVoteRelease), t0+4*B, isVote)
		if got {
			h.det.Clear(root)
			agreed = v == tok
		} else {
			h.det.Suspect(root)
		}
	}
	if !agreed {
		h.rep.VotesFailed++
		h.count(metrics.CtrVotesFailed)
		h.padTo(t0 + 4*B)
	}
	c.RecordSpan("heal-vote", t0, c.Now())
	return agreed
}

// reconfigure drives membership agreement until a quorum view commits.
// Coordinator choice is attempt-indexed rotation over the member list —
// identical on every live member regardless of how their suspicion
// sets diverge — and each attempt proposes epoch = current + attempt,
// so retries never reuse a token. A failed attempt (dead coordinator,
// sub-quorum arrivals, failed epoch barrier) pads to the fixed 7B
// attempt length and moves everyone to the next candidate together.
// On commit the context's group is rebuilt over the agreed survivors.
func (h *Healer) reconfigure(x *Ctx) error {
	u, c := h.ue, h.ue.Core()
	m := c.Chip().Model
	c.OverheadCycles(m.OverheadBlockingCall)
	t0 := c.Now()
	me := u.ID()
	B := h.unit()

	oldSize := len(h.members)
	maxAttempts := oldSize + 2
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		ta := c.Now()
		coord := h.members[(attempt-1)%oldSize]

		var view []int
		var epoch uint32
		var ok bool
		if coord == me {
			epoch = h.epoch + uint32(attempt)
			view, ok = h.coordinate(epoch, attempt, ta, B)
		} else {
			view, epoch, ok = h.follow(coord, attempt, ta, B)
			if ok && epoch <= h.epoch {
				ok = false // stale or bogus proposal
			}
		}
		if ok && len(view) >= h.quorum(oldSize) {
			if !slices.Contains(view, me) {
				h.evicted = fmt.Errorf("core: self-heal: %w: view of %d cores at epoch %d excludes core %d",
					ErrEvicted, len(view), epoch, me)
				return h.evicted
			}
			// Tentative adoption: salt the hardened protocol with the new
			// epoch and wipe this core's data-protocol flag bytes so the
			// aborted attempt's chunks, ACKs and progress bytes are inert.
			// Committed only if the epoch barrier over the view passes.
			u.SetEpoch(epoch)
			u.ResetProtocolFlags()
			if h.epochBarrier(view, epoch, ta, B) {
				h.rep.Evicted += int64(len(h.members) - len(view))
				h.members = append(h.members[:0], view...)
				h.epoch = epoch
				h.voteSeq = 0
				h.rep.Reconfigs++
				h.rep.LastAgreeAt = c.Now()
				h.count(metrics.CtrReconfigs)

				g, err := NewGroup(h.members, u.NumUEs())
				if err != nil {
					return err
				}
				x.grp = g
				c.RecordSpan("heal-membership", t0, c.Now())
				return nil
			}
		}
		h.padTo(ta + 7*B)
	}
	return fmt.Errorf("core: self-heal: %w: no stable view after %d attempts (epoch %d)",
		ErrNoQuorum, maxAttempts, h.epoch)
}

// coordinate runs the coordinator side of one agreement attempt: wait
// for each current member's exact arrive token under the shared 2B
// collection deadline, read the arrivals' call-sequence bytes, keep the
// largest same-call cohort (ties to the cohort that is further along),
// and publish view bitmap + epoch + release token to every view member.
// Returns ok=false when the cohort falls short of quorum. A coordinator
// whose own call sequence is in the minority publishes the view it
// assembled and is then evicted by its caller — the view members commit
// without it.
func (h *Healer) coordinate(epoch uint32, attempt int, ta simtime.Time, B simtime.Duration) ([]int, bool) {
	u, c := h.ue, h.ue.Core()
	comm := u.Comm()
	me := u.ID()
	tok := arriveTok(h.epoch, attempt)
	deadline := ta + 2*B

	arrived := h.viewBuf[:0]
	for _, p := range h.members {
		if p == me {
			h.seqBuf[me] = byte(h.collSeq)
			arrived = append(arrived, me)
			continue
		}
		off := comm.FlagAddr(me, p, rcce.FlagMemberArrive)
		if _, ok := h.waitUntil(off, deadline, func(v byte) bool { return v == tok }); !ok {
			h.det.Suspect(p)
			continue
		}
		h.det.Clear(p)
		h.seqBuf[p] = c.ProbeFlag(comm.FlagAddr(me, p, comm.FlagCollSeq()))
		arrived = append(arrived, p)
	}

	// Largest same-call cohort: a member stranded on a different
	// collective call must not exchange payload with this view.
	var bestSeq byte
	best := -1
	for _, p := range arrived {
		s := h.seqBuf[p]
		n := 0
		for _, q := range arrived {
			if h.seqBuf[q] == s {
				n++
			}
		}
		if n > best || (n == best && seqAfter(s, bestSeq)) {
			best, bestSeq = n, s
		}
	}
	k := 0
	for _, p := range arrived {
		if h.seqBuf[p] == bestSeq {
			arrived[k] = p
			k++
		}
	}
	view := arrived[:k]
	if len(view) < h.quorum(len(h.members)) {
		return nil, false
	}

	// Publish: payload first (bitmap + epoch), release flag last — the
	// flag write lands after the payload in virtual time, so a member
	// that sees the release reads a complete proposal.
	fillViewBitmap(h.bitmap, view)
	var eb [4]byte
	binary.LittleEndian.PutUint32(eb[:], epoch)
	rel := byte(1 + epoch%127)
	for _, p := range view {
		if p == me {
			continue
		}
		c.MPBWrite(comm.FlagAddr(p, me, rcce.FlagSuspBase), h.bitmap)
		c.MPBWrite(comm.FlagAddr(p, me, comm.FlagViewEpoch()), eb[:])
		c.SetFlag(comm.FlagAddr(p, me, rcce.FlagMemberRelease), rel)
	}
	h.viewBuf = view
	return view, true
}

// follow runs the member side of one agreement attempt against coord:
// clear my own release line (so a stale proposal can't be re-adopted),
// ship my suspicion bitmap and call-sequence byte, raise the exact
// attempt-derived arrive token, and wait for the proposal until the 6B
// mark — long enough for the coordinator's full 2B collection plus
// publication, short enough that a dead candidate costs one padded
// attempt. A timeout suspects the coordinator (a diagnostic hint only;
// rotation moves past it regardless).
func (h *Healer) follow(coord, attempt int, ta simtime.Time, B simtime.Duration) ([]int, uint32, bool) {
	u, c := h.ue, h.ue.Core()
	comm := u.Comm()
	me := u.ID()

	relOff := comm.FlagAddr(me, coord, rcce.FlagMemberRelease)
	c.SetFlag(relOff, 0)

	h.det.fillBitmap(h.bitmap)
	c.MPBWrite(comm.FlagAddr(coord, me, rcce.FlagSuspBase), h.bitmap)
	c.SetFlag(comm.FlagAddr(coord, me, comm.FlagCollSeq()), byte(h.collSeq))
	c.SetFlag(comm.FlagAddr(coord, me, rcce.FlagMemberArrive), arriveTok(h.epoch, attempt))

	_, ok := h.waitUntil(relOff, ta+6*B, func(v byte) bool { return v != 0 })
	if !ok {
		h.det.Suspect(coord)
		return nil, 0, false
	}
	h.det.Clear(coord)

	c.MPBRead(comm.FlagAddr(me, coord, rcce.FlagSuspBase), h.bitmap)
	var eb [4]byte
	c.MPBRead(comm.FlagAddr(me, coord, comm.FlagViewEpoch()), eb[:])
	epoch := binary.LittleEndian.Uint32(eb[:])

	view := h.viewBuf[:0]
	for i := 0; i < u.NumUEs(); i++ {
		if h.bitmap[i/8]&(1<<(i%8)) != 0 {
			view = append(view, i)
		}
	}
	h.viewBuf = view
	return view, epoch, true
}

// epochBarrier seals a proposed view: every member raises an
// epoch-derived arrive token toward the view's lowest member, which
// releases everyone only after all arrivals (collected under a shared
// deadline at the 5B mark; members wait for the release until 6B). A
// member that passes the barrier knows every other view member adopted
// the same epoch (their arrive write happens after their SetEpoch), so
// hardened traffic under the new epoch cannot race a peer still on the
// old one. Root-side failure suspects the missing members and withholds
// the release; member-side failure aborts without suspecting the root
// (the root may have aborted because of a third member — rotation moves
// everyone to the next candidate together).
func (h *Healer) epochBarrier(view []int, epoch uint32, ta simtime.Time, B simtime.Duration) bool {
	if len(view) <= 1 {
		return true
	}
	u, c := h.ue, h.ue.Core()
	comm := u.Comm()
	m := c.Chip().Model
	c.OverheadCycles(m.OverheadBlockingCall)

	me := u.ID()
	root := view[0]
	tok := byte(1 + epoch%127)
	isTok := func(v byte) bool { return v == tok }

	if me == root {
		deadline := ta + 5*B
		ok := true
		for _, p := range view[1:] {
			if _, got := h.waitUntil(comm.FlagAddr(root, p, rcce.FlagEpochArrive), deadline, isTok); !got {
				h.det.Suspect(p)
				ok = false
			}
		}
		if !ok {
			return false
		}
		for _, p := range view[1:] {
			c.SetFlag(comm.FlagAddr(p, root, rcce.FlagEpochRelease), tok)
		}
		return true
	}

	c.SetFlag(comm.FlagAddr(root, me, rcce.FlagEpochArrive), tok)
	_, ok := h.waitUntil(comm.FlagAddr(me, root, rcce.FlagEpochRelease), ta+6*B, isTok)
	return ok
}

// fillViewBitmap encodes a member list as the wire bitmap (bit i%8 of
// byte i/8 = core i in view).
func fillViewBitmap(buf []byte, view []int) {
	clear(buf)
	for _, id := range view {
		buf[id/8] |= 1 << (id % 8)
	}
}
