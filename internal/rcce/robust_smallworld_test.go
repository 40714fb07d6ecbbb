package rcce

import (
	"errors"
	"fmt"
	"testing"

	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
)

// The hardened protocol's guarantee is argued case by case (lost flag,
// lost ACK, corrupt chunk, ...). These tests enumerate the cases
// mechanically instead: in a world small enough to list every write of a
// run, every single perturbation and every pair of them must end with
// bit-correct data or a typed ErrUnreachable — never with wrong data
// delivered as good.

type perturbKind int

const (
	dropBulk perturbKind = iota
	corruptBulk
	dropFlag
)

// perturbation hits the idx-th bulk MPB write (dropBulk, corruptBulk) or
// the idx-th flag write (dropFlag) of the whole run, counted over all
// writers in simulation order.
type perturbation struct {
	kind perturbKind
	idx  int
}

func (p perturbation) String() string {
	return [...]string{"drop-bulk", "corrupt-bulk", "drop-flag"}[p.kind] + fmt.Sprint(p.idx)
}

// perturbHook is a scc.FaultHook that applies a fixed set of
// perturbations and counts the writes it saw.
type perturbHook struct {
	perts      []perturbation
	bulk, flag int
}

func (h *perturbHook) StallCore(int, simtime.Time) simtime.Duration { return 0 }
func (h *perturbHook) CoreDead(int, simtime.Time) bool              { return false }

func (h *perturbHook) DropFlagWrite(writer, off int, now simtime.Time) bool {
	i := h.flag
	h.flag++
	for _, p := range h.perts {
		if p.kind == dropFlag && p.idx == i {
			return true
		}
	}
	return false
}

func (h *perturbHook) FilterMPBWrite(writer, off int, data []byte, now simtime.Time) bool {
	i := h.bulk
	h.bulk++
	drop := false
	for _, p := range h.perts {
		if p.idx != i {
			continue
		}
		switch p.kind {
		case dropBulk:
			drop = true
		case corruptBulk:
			for k := range data {
				data[k] ^= 0xA5
			}
		}
	}
	return drop
}

const (
	worldMsgs = 3
	worldN    = 11 // doubles per message: 88 B, equal lengths on purpose
)

// msgScale makes message m from sender id recognizably distinct.
func msgScale(id, m int) float64 { return float64(1000*(id+1) + 100*m) }

// holds reports whether the n doubles at a are exactly fill's pattern.
func holds(core *scc.Core, a scc.Addr, n int, scale float64) bool {
	got := make([]float64, n)
	core.ReadF64s(a, got)
	for i, v := range got {
		if v != scale+float64(i) {
			return false
		}
	}
	return true
}

// runSmallWorld moves worldMsgs messages between cores 0 and 1 under
// hook — core 0 to core 1 (simplex), or both ways at once through
// ExchangeRobust (duplex) — and returns a description of the first
// contract violation, or "". A core stops at its first error, as a
// collective would.
func runSmallWorld(hook scc.FaultHook, duplex bool) (violation string, stats RecoveryStats) {
	chip := scc.New(timing.Default())
	chip.Fault = hook
	comm := NewComm(chip)
	costs := NBCosts{Post: 500, Wait: 400, Progress: 300}
	pol := Policy{Timeout: simtime.Microseconds(50), MaxRetries: 5}
	report := func(format string, args ...any) {
		if violation == "" {
			violation = fmt.Sprintf(format, args...)
		}
	}
	for id := 0; id < 2; id++ {
		id, peer := id, 1-id
		chip.LaunchOne(id, func(core *scc.Core) {
			u := comm.UE(id)
			defer func() { stats.Add(u.Recovery()) }()
			var src, dst [worldMsgs]scc.Addr
			for m := range src {
				src[m] = core.AllocF64(worldN)
				dst[m] = core.AllocF64(worldN)
				fill(core, src[m], worldN, msgScale(id, m))
			}
			for m := 0; m < worldMsgs; m++ {
				var err error
				receives := duplex || id == 1
				switch {
				case duplex:
					err = u.ExchangeRobust(costs, pol, peer, src[m], 8*worldN, peer, dst[m], 8*worldN)
				case id == 0:
					err = u.SendRobust(costs, pol, peer, src[m], 8*worldN)
				default:
					err = u.RecvRobust(costs, pol, peer, dst[m], 8*worldN)
				}
				if err != nil {
					if !errors.Is(err, ErrUnreachable) {
						report("core %d message %d: untyped error %v", id, m+1, err)
					}
					return
				}
				if receives && !holds(core, dst[m], worldN, msgScale(peer, m)) {
					report("core %d accepted wrong data as message %d", id, m+1)
					return
				}
			}
		})
	}
	if err := chip.Run(); err != nil {
		report("run: %v", err)
	}
	return violation, stats
}

// TestRobustDoubleLossIsNacked is the smallest reproduction of the
// stale-chunk replay: the payload write and the checksum write of
// message 2 are both lost (in a simplex run only the sender issues bulk
// writes, so they are bulk writes 2 and 3 of the run), which leaves
// message 1 and message 1's checksum in place. The receiver must NACK
// them instead of accepting message 1's bytes as message 2.
func TestRobustDoubleLossIsNacked(t *testing.T) {
	hook := &perturbHook{perts: []perturbation{{dropBulk, 2}, {dropBulk, 3}}}
	violation, stats := runSmallWorld(hook, false)
	if violation != "" {
		t.Fatal(violation)
	}
	if stats.Nacks < 1 {
		t.Fatalf("the stale chunk was not NACKed: %+v", stats)
	}
}

// TestRobustPairwiseExhaustive enumerates every single perturbation and
// every unordered pair of perturbations of a 2-core, 3-message run,
// simplex and duplex. The index ranges come from the fault-free run plus
// the writes one retransmission adds, so perturbed retransmissions are
// covered too.
func TestRobustPairwiseExhaustive(t *testing.T) {
	for _, duplex := range []bool{false, true} {
		clean := &perturbHook{}
		if v, stats := runSmallWorld(clean, duplex); v != "" || stats != (RecoveryStats{}) {
			t.Fatalf("duplex=%v: fault-free run: %q, stats %+v", duplex, v, stats)
		}
		var all []perturbation
		for i := 0; i < clean.bulk+2; i++ {
			all = append(all, perturbation{dropBulk, i}, perturbation{corruptBulk, i})
		}
		for j := 0; j < clean.flag+1; j++ {
			all = append(all, perturbation{dropFlag, j})
		}
		runs, bad := 0, 0
		try := func(perts ...perturbation) {
			runs++
			if v, _ := runSmallWorld(&perturbHook{perts: perts}, duplex); v != "" {
				bad++
				t.Errorf("duplex=%v %v: %s", duplex, perts, v)
			}
		}
		for i, p := range all {
			try(p)
			for _, q := range all[i+1:] {
				try(p, q)
			}
		}
		t.Logf("duplex=%v: %d perturbations, %d runs, %d violations", duplex, len(all), runs, bad)
	}
}
