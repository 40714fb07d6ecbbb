package rcce_test

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"scc/internal/core"
	"scc/internal/metrics"
	"scc/internal/rcce"
	"scc/internal/rckmpi"
	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
)

// testdata/transfer_pin.txt was recorded before blocking RCCE, the
// request engine and the hardened protocol were folded into one chunk
// state machine, so this test proves the fold moved no tick and no
// access: per (driver, payload, start skew) both cores' finishing
// ticks, Profiles, put/get/flag counters and RecoveryStats, plus two
// hardened runs under a lost sent flag and a corrupted chunk.
//
// The rckmpi rows were appended before RCKMPI's window channel became a
// pricing row of the same state machine, so they prove that fold moved
// nothing either. The last rows — a lost ready flag recovered through
// the progress byte, a peer whose writes never land (the retry budget
// runs out and every request of the wait is abandoned), and a posted
// exchange whose two flags fire in one round — were appended before
// WaitAll's rounds ran in the engine.
//
// Rewrite it only when the workload below changes, never to absorb a
// difference: a run whose cell count disagrees with the file logs every
// line it produced.
const transferPinPath = "testdata/transfer_pin.txt"

// pinFault is a FaultHook that loses core 0's first flag write,
// corrupts its first bulk MPB write, loses core 1's first ready flag
// (at readyOff), or loses every write of core 1 into core 0's MPB (the
// offsets below mpb1, the base of core 1's); pinCell sets the offsets.
type pinFault struct {
	drop, corrupt, dropReady, deaf bool
	readyOff, mpb1                 int
}

func (h *pinFault) StallCore(int, simtime.Time) simtime.Duration { return 0 }
func (h *pinFault) CoreDead(int, simtime.Time) bool              { return false }
func (h *pinFault) DropFlagWrite(writer, off int, _ simtime.Time) bool {
	switch {
	case writer == 1 && h.deaf:
		return off < h.mpb1
	case writer == 1 && h.dropReady && off == h.readyOff:
		h.dropReady = false
		return true
	case writer != 0 || !h.drop:
		return false
	}
	h.drop = false
	return true
}
func (h *pinFault) FilterMPBWrite(writer, off int, data []byte, _ simtime.Time) bool {
	if writer == 1 && h.deaf && off < h.mpb1 {
		return true
	}
	if writer == 0 && h.corrupt {
		h.corrupt = false
		for i := range data {
			data[i] ^= 0xA5
		}
	}
	return false
}

// pinDrivers moves n bytes between cores 0 and 1 at src/dst through one
// point-to-point driver; exchange drivers move them both ways.
var pinDrivers = []struct {
	name     string
	exchange bool
	run      func(ue *rcce.UE, costs rcce.NBCosts, peer int, src, dst scc.Addr, n int) error
}{
	{"blocking", false, func(ue *rcce.UE, _ rcce.NBCosts, peer int, src, dst scc.Addr, n int) error {
		if ue.ID() == 0 {
			ue.Send(peer, src, n)
		} else {
			ue.Recv(peer, dst, n)
		}
		return nil
	}},
	{"nb", false, func(ue *rcce.UE, costs rcce.NBCosts, peer int, src, dst scc.Addr, n int) error {
		if ue.ID() == 0 {
			ue.WaitAll(costs, ue.PostSend(costs, peer, src, n))
		} else {
			ue.WaitAll(costs, ue.PostRecv(costs, peer, dst, n))
		}
		return nil
	}},
	{"nb-exchange", true, func(ue *rcce.UE, costs rcce.NBCosts, peer int, src, dst scc.Addr, n int) error {
		s := ue.PostSend(costs, peer, src, n)
		r := ue.PostRecv(costs, peer, dst, n)
		ue.WaitAll(costs, s, r)
		return nil
	}},
	{"robust", false, func(ue *rcce.UE, costs rcce.NBCosts, peer int, src, dst scc.Addr, n int) error {
		if ue.ID() == 0 {
			return ue.SendRobust(costs, rcce.DefaultPolicy(), peer, src, n)
		}
		return ue.RecvRobust(costs, rcce.DefaultPolicy(), peer, dst, n)
	}},
	{"robust-exchange", true, func(ue *rcce.UE, costs rcce.NBCosts, peer int, src, dst scc.Addr, n int) error {
		return ue.ExchangeRobust(costs, rcce.DefaultPolicy(), peer, src, n, peer, dst, n)
	}},
	{"rckmpi", false, func(ue *rcce.UE, _ rcce.NBCosts, peer int, src, dst scc.Addr, n int) error {
		if l := rckmpi.New(ue); ue.ID() == 0 {
			l.Send(peer, src, n)
		} else {
			l.Recv(peer, dst, n)
		}
		return nil
	}},
	// Core 1 posts its receive first: core 0's data is then consumed by
	// the receive's post, and core 0's wait finds both of its flags
	// fired in one round, advancing the second in the "push the others"
	// loop.
	{"nb-crossed", true, func(ue *rcce.UE, costs rcce.NBCosts, peer int, src, dst scc.Addr, n int) error {
		if ue.ID() == 0 {
			s := ue.PostSend(costs, peer, src, n)
			ue.WaitAll(costs, s, ue.PostRecv(costs, peer, dst, n))
		} else {
			r := ue.PostRecv(costs, peer, dst, n)
			ue.WaitAll(costs, ue.PostSend(costs, peer, src, n), r)
		}
		return nil
	}},
}

// pinCell runs one transfer with a metrics registry attached and
// renders what both cores paid for it.
func pinCell(t *testing.T, driver, n int, skew string, fault *pinFault) string {
	t.Helper()
	d := pinDrivers[driver]
	chip := scc.New(timing.Default())
	reg := metrics.New(chip.NumCores())
	chip.SetMetrics(reg)
	comm := rcce.NewComm(chip)
	if fault != nil {
		chip.Fault = fault
		fault.readyOff, fault.mpb1 = comm.FlagAddr(0, 1, rcce.FlagReady), chip.MPBBase(1)
	}
	costs := core.TransportLightweight.Costs(chip.Model)
	var end [2]simtime.Time
	var stats [2]rcce.RecoveryStats
	var errs [2]error
	var busy [2][2]bool
	var got [2][]byte
	payload := func(id int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(31*id + 7*i + i/251)
		}
		return b
	}
	for id := 0; id < 2; id++ {
		chip.LaunchOne(id, func(c *scc.Core) {
			ue := comm.UE(id)
			src, dst := c.Alloc(max(n, 1)), c.Alloc(max(n, 1))
			copy(c.PrivBytes(src, n), payload(id))
			if skew == fmt.Sprintf("late%d", id) {
				c.ComputeCycles(20_000)
			}
			errs[id] = d.run(ue, costs, 1-id, src, dst, n)
			busy[id][0], busy[id][1] = ue.Busy()
			end[id] = c.Now()
			stats[id] = ue.Recovery()
			got[id] = bytes.Clone(c.PrivBytes(dst, n))
		})
	}
	if err := chip.Run(); err != nil {
		t.Fatalf("%s/%d/%s: %v", d.name, n, skew, err)
	}
	for id := 0; id < 2; id++ {
		if errs[id] != nil && (fault == nil || !fault.deaf) {
			t.Fatalf("%s/%d/%s: core %d: %v", d.name, n, skew, id, errs[id])
		}
		if errs[id] == nil && (id == 1 || d.exchange) && !bytes.Equal(got[id], payload(1-id)) {
			t.Fatalf("%s/%d/%s: core %d received a wrong payload", d.name, n, skew, id)
		}
	}
	snap := reg.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%d/%s:", d.name, n, skew)
	for id := 0; id < 2; id++ {
		ctr := snap.Cores[id].Counters
		p, s := chip.Cores[id].Prof(), stats[id]
		fmt.Fprintf(&b, " c%d{end=%d wait=%d/%d compute=%d mpb=%d/%d puts=%d gets=%d sets=%d probes=%d"+
			" stats=%d/%d/%d/%d/%d/%d/%d/%d}", id, end[id],
			p.FlagWait, p.FlagWaits, p.Compute, p.MPBBytesRead, p.MPBBytesWritten,
			ctr[metrics.CtrPuts.String()], ctr[metrics.CtrGets.String()],
			ctr[metrics.CtrFlagSets.String()], ctr[metrics.CtrFlagProbes.String()],
			s.Timeouts, s.Retransmits, s.Nacks, s.DupAcks, s.LostAcks, s.Recovery, s.GiveUps, s.FirstGiveUp)
		if errs[id] != nil { // a wait that gave up leaves no request in flight
			fmt.Fprintf(&b, " err{%v busy=%v}", errs[id], busy[id])
		}
	}
	return b.String()
}

// TestTransferPin holds every point-to-point driver to the ticks and
// accesses recorded in testdata/transfer_pin.txt.
func TestTransferPin(t *testing.T) {
	var lines []string
	skews := []string{"even", "late0", "late1"}
	payloads := []int{0, 8, 40, 6528, 6529, 24000}
	rck := 5 // the drivers before it run every payload and skew
	for driver := range rck {
		for _, n := range payloads {
			for _, skew := range skews {
				lines = append(lines, pinCell(t, driver, n, skew, nil))
			}
		}
	}
	robust := 3
	lines = append(lines,
		"dropped-sent-flag "+pinCell(t, robust, 6529, "even", &pinFault{drop: true}),
		"corrupted-chunk "+pinCell(t, robust, 6529, "even", &pinFault{corrupt: true}))
	// RCKMPI streams through 64-B windows on the 48-core chip: one
	// window, one byte over it, and the 69 windows of the Fig. 9 size.
	for _, n := range append(payloads, 64, 65, 4416) {
		for _, skew := range skews {
			lines = append(lines, pinCell(t, rck, n, skew, nil))
		}
	}
	// The hardened paths WaitAll's rounds carry besides those above: a
	// lost ACK, recovered through the progress byte on the sender's
	// timeout, and a deaf peer, on which the retry budget runs out.
	exchange := robust + 1
	lines = append(lines,
		"lost-ready-flag "+pinCell(t, robust, 6529, "even", &pinFault{dropReady: true}),
		"lost-ready-flag "+pinCell(t, exchange, 8, "even", &pinFault{dropReady: true}),
		"deaf-peer "+pinCell(t, robust, 8, "even", &pinFault{deaf: true}),
		"deaf-peer "+pinCell(t, exchange, 6529, "even", &pinFault{deaf: true}))
	for _, n := range []int{8, 552, 6529} {
		lines = append(lines, pinCell(t, rck+1, n, "even", nil))
	}
	raw, err := os.ReadFile(transferPinPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%s has %d cells, the workload %d:\n%s", transferPinPath, len(want), len(lines), strings.Join(lines, "\n"))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("cell %d moved:\n  want: %s\n  got:  %s", i+1, want[i], lines[i])
		}
	}
}
