package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"scc/internal/metrics"
	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/simtime"
)

// Self-healing collective runtime: no oracle tells the survivors who
// died. Instead the runtime closes the loop in-band:
//
//  1. Detection is the first wait that gave up on a peer: a hardened
//     transport retry budget running out (ErrUnreachable) or a vote or
//     epoch-barrier timeout. It is a fallible local hint — a live core is
//     routinely given up on when a shared neighbor dies and stalls it —
//     so its time is recorded (detection latency is a measured quantity)
//     but it never filters membership or steers the choice of root.
//
//  2. Outcome vote and membership agreement (vote, reconfigure). After
//     every wrapped collective a flag-token round over the MPB
//     establishes whether *all* members succeeded; anything else sends
//     everyone to reconfiguration together. A root that fails the vote
//     but gathered a quorum of same-call arrivals carries them as the
//     new view on its failed release: one gather both finds and removes
//     the dead, and a member stranded on another call is left out of
//     it. While no view commits (the root is dead or below quorum, or
//     the view's epoch barrier fails), the next round is the same vote
//     with every member voting failure, rooted at the next member of a
//     rotation that is a pure function of shared state. Every round that
//     does not commit pads to the same length, so members stay aligned
//     instead of drifting apart.
//
//  3. Epoch adoption (adopt). Each member re-salts the hardened
//     protocol with the new epoch and wipes its own data-protocol flag
//     bytes, so no stale chunk, ACK or progress byte of the aborted
//     attempt passes for fresh traffic. The epoch barrier is the commit
//     point: only members that passed it re-execute the collective on
//     the agreed survivor group.
//
// All of it runs on simulated cores over the MPB with priced flags and
// deterministic timeouts: same-seed runs are bit-identical.

// Sentinel errors of the self-healing runtime.
var (
	// ErrEvicted: the agreed survivor view does not contain this core
	// (it was partitioned away from the quorum, or stranded on a
	// different collective call than the majority cohort).
	ErrEvicted = errors.New("core: evicted from agreed survivor group")
	// ErrNoQuorum: no agreement round assembled a majority of the
	// previous group.
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
	// a round's root collects against a shared deadline of B, members
	// re-raise their arrival after Member's first window and wait for
	// the release until 4B; a carried view commits by 3B (root) or 4B
	// (members), and a round that does not commit is padded to 4B. B
	// must exceed the worst-case entry skew between members (a live one
	// still burning its Detect budget) plus that window, or it is evicted.
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
		Detect:    rcce.Policy{Timeout: simtime.Microseconds(300), MaxRetries: 7, Jitter: 4},
		Member:    rcce.Policy{Timeout: simtime.Microseconds(2000), MaxRetries: 6},
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
	Votes       int64 // vote rounds participated in: outcome votes and agreement rounds
	VotesFailed int64 // vote rounds that did not reach unanimous success
	Reconfigs   int64 // committed membership agreements
	Reexecs     int64 // collective re-executions after reconfiguration
	Evicted     int64 // members dropped across all reconfigurations

	Epoch          uint32       // current communicator epoch
	FirstSuspectAt simtime.Time // first wait that gave up on a peer (-1 = none)
	LastAgreeAt    simtime.Time // last committed agreement (-1 = none)
}

// Merge folds one core's report into a system-wide aggregate (start from
// RecoveryReport{FirstSuspectAt: -1, LastAgreeAt: -1}). Per-core vote
// counts are summed; global-event counts (reconfigurations,
// re-executions, evictions — every member observes the same committed
// events) and the epoch are maxima; FirstSuspectAt is the first wait on
// any core that gave up on a peer and LastAgreeAt the latest committed
// agreement.
func (a *RecoveryReport) Merge(r RecoveryReport) {
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
// collective calls (and across façade Runs): the first give-up, the
// agreed member set and the communicator epoch are durable, so a second
// failure starts from the already-shrunk group.
type Healer struct {
	ue  *rcce.UE
	pol HealPolicy

	epoch   uint32
	members []int
	voteSeq uint32 // vote-token counter within the epoch
	collSeq uint32 // wrapped-collective call counter (bound into vote tokens)
	// evicted is the verdict of the agreement that excluded this core. It
	// is final: every later collective, and every later context built on
	// this healer, gets it back instead of timing out against a group
	// that has moved on to another epoch.
	evicted error

	rep RecoveryReport

	// MPB payload scratch.
	bitmap  []byte
	viewBuf []int
}

// NewHealer builds a self-healing state machine for the UE, initially
// spanning all cores at epoch 0.
func NewHealer(ue *rcce.UE, pol HealPolicy) *Healer {
	n := ue.NumUEs()
	h := &Healer{
		ue:      ue,
		pol:     pol.withDefaults(),
		members: make([]int, n),
		bitmap:  make([]byte, ue.Core().Chip().Model.ViewBitmapBytes()),
		viewBuf: make([]int, 0, n),
	}
	for i := range h.members {
		h.members[i] = i
	}
	h.rep.FirstSuspectAt = -1
	h.rep.LastAgreeAt = -1
	return h
}

// Bind re-attaches the healer to a fresh UE for the same core (the
// façade rebuilds UEs per Run) and re-applies the current epoch to the
// new UE's protocol state. The old UE's first give-up is folded in
// first, so detection survives the Run boundary.
func (h *Healer) Bind(ue *rcce.UE) {
	h.foldGiveUp()
	h.ue = ue
	if h.epoch != 0 {
		ue.SetEpoch(h.epoch)
	}
}

// Epoch returns the current communicator epoch.
func (h *Healer) Epoch() uint32 { return h.epoch }

// Members returns the current agreed member set (a copy).
func (h *Healer) Members() []int { return append([]int(nil), h.members...) }

// Report returns the healing activity summary, folding in the bound
// UE's first give-up.
func (h *Healer) Report() RecoveryReport {
	h.foldGiveUp()
	r := h.rep
	r.Epoch = h.epoch
	return r
}

// suspect records a detection at t: FirstSuspectAt keeps the earliest.
func (h *Healer) suspect(t simtime.Time) {
	if h.rep.FirstSuspectAt < 0 || t < h.rep.FirstSuspectAt {
		h.rep.FirstSuspectAt = t
	}
}

// foldGiveUp folds the bound UE's first exhausted retry budget into
// FirstSuspectAt.
func (h *Healer) foldGiveUp() {
	if s := h.ue.Recovery(); s.GiveUps > 0 {
		h.suspect(s.FirstGiveUp)
	}
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
		w *= rcce.Backoff
	}
	return total
}

// unit returns B, the agreement protocol's unit of time.
func (h *Healer) unit() simtime.Duration { return policyBudget(h.pol.Member) }

// waitUntil waits until the flag byte at off holds a or b, or the
// absolute deadline passes. The deadline is shared by a whole collection
// phase: several missing peers run the clock down together instead of
// each consuming a private budget, which keeps the phase length — and
// with it the release-wait budgets of everyone else — independent of
// how many peers died. A timed-out wait pays one timeout check; a wait
// entered past the deadline degenerates to a single priced probe.
func (h *Healer) waitUntil(off int, deadline simtime.Time, a, b byte) (byte, bool) {
	c := h.ue.Core()
	if rem := deadline - c.Now(); rem > 0 {
		v, ok := c.WaitFlagMatch(scc.Watch(off, a, b), rem)
		if !ok {
			c.OverheadCycles(c.Chip().Model.OverheadTimeoutCheck)
		}
		return v, ok
	}
	v := c.ProbeFlag(off)
	return v, v == a || v == b
}

// padTo idles the core until absolute time t. Failure paths of one
// round differ in length (a root strikes out after its B collection, a
// member only after its 4B release wait, a failed epoch barrier in
// between); padding every failed round to the same round-relative
// deadline keeps the members aligned, so the drift between them stays
// bounded by their initial skew instead of compounding round over round.
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

// run executes body under the self-healing loop: every outermost call
// votes on its outcome, and anything short of unanimous success leads
// the members to agree on a survivor view, adopt a fresh epoch and
// re-execute. No collective of a self-healing context nests another:
// algorithm bodies call bodies, not public collectives, and the one
// composition that does (the multi-chip one) never self-heals (see
// NewCtxWith).
func (h *Healer) run(x *Ctx, body func() error) error {
	if h.evicted != nil {
		return h.evicted
	}
	h.collSeq++

	var err error
	for round := 0; ; round++ {
		err = body()
		if err != nil && !errors.Is(err, rcce.ErrUnreachable) {
			return err // deterministic user error: same on every member
		}
		if len(h.members) <= 1 {
			return err // nobody left to vote with
		}
		t0, agreed, carried := h.vote(err == nil, 0)
		if agreed && err == nil {
			return nil // unanimous success
		}
		if round+1 >= h.pol.MaxRounds {
			return fmt.Errorf("core: self-heal: %w: %d rounds at epoch %d (last error: %v)",
				ErrHealGiveUp, round+1, h.epoch, err)
		}
		if rerr := h.reconfigure(x, t0, carried); rerr != nil {
			return rerr
		}
		h.rep.Reexecs++
		h.count(metrics.CtrReexecs)
	}
}

// vote runs round a of the agreement: round 0 is the outcome vote of
// the call, rooted at the lowest member; round a > 0 is the same vote
// with every member voting failure, rooted at member (a-1) mod n, so a
// dead root costs one round and the rotation, identical on every live
// member however their give-ups diverge, moves everyone to the
// next root together. The root collects a token (tok = success,
// tok|0x80 = failure) from each member under a shared B deadline and
// releases the verdict; members wait for it until 4B and, in case a
// write was dropped, re-raise their arrival after Member.Timeout. Tokens bind
// (epoch, voteSeq, collSeq): no stale flag satisfies a wait, and a
// member on another collective call never counts as an arrival. A root
// that fails the vote with a quorum of arrivals publishes them as the
// view of epoch + 1 + a before the failed release, which a member looks
// for behind any failed verdict (its own call's or another's). Without
// a view, a failed round pads to the 4B mark, so the members enter the
// next round aligned. Reports the round's start, unanimous success, and
// whether a view was carried.
func (h *Healer) vote(ok bool, a int) (t0 simtime.Time, agreed, carried bool) {
	u, c := h.ue, h.ue.Core()
	comm := u.Comm()
	c.OverheadCycles(c.Chip().Model.OverheadBlockingCall)
	t0 = c.Now()
	B := h.unit()

	h.voteSeq++
	tok := byte(1 + (h.epoch*31+h.voteSeq+h.collSeq*53)%127)
	fail := tok | 0x80
	epoch := h.epoch + 1 + uint32(a)

	me := u.ID()
	root := h.members[max(a-1, 0)%len(h.members)]
	h.rep.Votes++
	h.count(metrics.CtrVotes)

	if me == root {
		all := ok
		deadline := t0 + B
		arrived := h.viewBuf[:0]
		for _, p := range h.members {
			if p == me {
				arrived = append(arrived, me)
				continue
			}
			v, got := h.waitUntil(comm.FlagAddr(root, p, rcce.FlagVoteArrive), deadline, tok, fail)
			if !got {
				h.suspect(c.Now())
				all = false
				continue
			}
			arrived = append(arrived, p)
			if v != tok {
				all = false
			}
		}
		h.viewBuf = arrived
		carried = !all && len(arrived) >= h.quorum(len(h.members))
		if carried {
			h.publish(arrived, h.members, epoch)
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
		arrive, release := comm.FlagAddr(root, me, rcce.FlagVoteArrive), comm.FlagAddr(me, root, rcce.FlagVoteRelease)
		c.SetFlag(arrive, val)
		v, got := h.waitUntil(release, t0+h.pol.Member.Timeout, tok, fail)
		if !got {
			c.SetFlag(arrive, val)
			v, got = h.waitUntil(release, t0+4*B, tok, fail)
		}
		if got {
			agreed = v == tok
		} else {
			h.suspect(c.Now())
		}
		// A failed verdict, ours or one of another call, may carry a view.
		if !agreed && v&0x80 != 0 && c.ProbeFlag(comm.FlagAddr(me, root, rcce.FlagMemberRelease)) == byte(1+epoch%127) {
			_, e := h.readProposal(root)
			carried = e == epoch
		}
	}
	if !agreed {
		h.rep.VotesFailed++
		h.count(metrics.CtrVotesFailed)
		if !carried {
			h.padTo(t0 + 4*B)
		}
	}
	c.RecordSpan("heal-vote", t0, c.Now())
	return t0, agreed, carried
}

// reconfigure runs agreement rounds, after the outcome vote that started
// at tv, until a quorum view commits. A carried view is adopted with its
// epoch barrier bounded to the round's 3B (root) and 4B (members) marks;
// a view that fails to commit pads its round to the 4B mark, and the
// next round proposes the next epoch, so no arrival at one view's
// barrier satisfies a later one. After n + 2 rounds, enough to pass
// every root of the rotation, agreement gives up with ErrNoQuorum.
func (h *Healer) reconfigure(x *Ctx, tv simtime.Time, carried bool) error {
	c, B := h.ue.Core(), h.unit()
	rounds := len(h.members) + 2
	for a := 0; a < rounds; a++ {
		if a > 0 {
			tv, _, carried = h.vote(false, a)
		}
		if !carried {
			continue
		}
		if done, err := h.adopt(x, h.viewBuf, h.epoch+1+uint32(a), tv+3*B, c.Now()); done || err != nil {
			return err
		}
		h.padTo(tv + 4*B)
	}
	return fmt.Errorf("core: self-heal: %w: no stable view after %d rounds (epoch %d)",
		ErrNoQuorum, rounds, h.epoch)
}

// adopt commits a quorum view at epoch: it evicts this core, for good,
// if the view lacks it; otherwise it re-salts the hardened protocol and
// wipes this core's data-protocol flags (the aborted attempt's bytes go
// inert), then commits if the epoch barrier passes (root deadline by,
// members one unit later), rebuilding the context's group over the view.
func (h *Healer) adopt(x *Ctx, view []int, epoch uint32, by, t0 simtime.Time) (bool, error) {
	u, c := h.ue, h.ue.Core()
	if len(view) < h.quorum(len(h.members)) {
		return false, nil
	}
	if !slices.Contains(view, u.ID()) {
		h.evicted = fmt.Errorf("core: self-heal: %w: view of %d cores at epoch %d excludes core %d",
			ErrEvicted, len(view), epoch, u.ID())
		return false, h.evicted
	}
	u.SetEpoch(epoch)
	u.ResetProtocolFlags()
	if !h.epochBarrier(view, epoch, by, by+h.unit()) {
		return false, nil
	}
	h.rep.Evicted += int64(len(h.members) - len(view))
	h.members = append(h.members[:0], view...)
	h.epoch = epoch
	h.voteSeq = 0
	h.rep.Reconfigs++
	h.rep.LastAgreeAt = c.Now()
	h.count(metrics.CtrReconfigs)

	g, err := NewGroup(h.members, u.NumUEs())
	if err != nil {
		return false, err
	}
	x.grp = g
	c.RecordSpan("heal-membership", t0, c.Now())
	return true, nil
}

// publish proposes view at epoch to the cores of to: the bitmap once into
// this core's view slot, the epoch word into each recipient's line, and
// the release flag last, so a core that sees it reads a whole proposal.
func (h *Healer) publish(view, to []int, epoch uint32) {
	u, c := h.ue, h.ue.Core()
	comm := u.Comm()
	me := u.ID()
	fillViewBitmap(h.bitmap, view)
	c.MPBWrite(comm.ViewSlot(me), h.bitmap)
	var eb [4]byte
	binary.LittleEndian.PutUint32(eb[:], epoch)
	rel := byte(1 + epoch%127)
	for _, p := range to {
		if p == me {
			continue
		}
		c.MPBWrite(comm.FlagAddr(p, me, rcce.FlagViewEpoch), eb[:])
		c.SetFlag(comm.FlagAddr(p, me, rcce.FlagMemberRelease), rel)
	}
}

// readProposal reads root's proposal: the view from its view slot (into
// viewBuf), the epoch from this core's line.
func (h *Healer) readProposal(root int) ([]int, uint32) {
	u, c := h.ue, h.ue.Core()
	comm := u.Comm()
	c.MPBRead(comm.ViewSlot(root), h.bitmap)
	var eb [4]byte
	c.MPBRead(comm.FlagAddr(u.ID(), root, rcce.FlagViewEpoch), eb[:])

	view := h.viewBuf[:0]
	for i := 0; i < u.NumUEs(); i++ {
		if h.bitmap[i/8]&(1<<(i%8)) != 0 {
			view = append(view, i)
		}
	}
	h.viewBuf = view
	return view, binary.LittleEndian.Uint32(eb[:])
}

// epochBarrier seals a proposed view: every member raises an
// epoch-derived arrive token toward the view's lowest member, which
// releases everyone only after all arrivals (collected under the shared
// deadline rootBy; members wait for the release until memberBy). A
// member that passes the barrier knows every other view member adopted
// the same epoch (their arrive write happens after their SetEpoch), so
// hardened traffic under the new epoch cannot race a peer still on the
// old one. Root-side failure records a detection and withholds the
// release; member-side failure aborts without recording one (the root
// may have aborted because of a third member — the next agreement round
// moves everyone on together).
func (h *Healer) epochBarrier(view []int, epoch uint32, rootBy, memberBy simtime.Time) bool {
	if len(view) <= 1 {
		return true
	}
	u, c := h.ue, h.ue.Core()
	comm := u.Comm()
	c.OverheadCycles(c.Chip().Model.OverheadBlockingCall)

	me := u.ID()
	root := view[0]
	tok := byte(1 + epoch%127)

	if me == root {
		ok := true
		for _, p := range view[1:] {
			if _, got := h.waitUntil(comm.FlagAddr(root, p, rcce.FlagEpochArrive), rootBy, tok, tok); !got {
				h.suspect(c.Now())
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
	_, ok := h.waitUntil(comm.FlagAddr(me, root, rcce.FlagEpochRelease), memberBy, tok, tok)
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
