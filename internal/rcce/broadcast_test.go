package rcce

import (
	"fmt"
	"os"
	"testing"

	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
)

// bcastCall is one BroadcastTree call of a broadcast sequence, followed
// by one other synchronization on the same chip.
type bcastCall struct {
	root, nBytes int
	then         bcastThen
}

// bcastThen is what a core runs after a broadcast call.
type bcastThen int

const (
	thenNothing bcastThen = iota
	thenBarrierTree
	thenBarrier
	thenSendRecv // a message up every edge of the call's tree
)

// bcastModels are the geometries the broadcast tests run on: ragged
// binomial trees (49, 257 cores) and a full one (1,024), plus 10,000
// cores under LARGE_MESH_10K=1.
func bcastModels() []*timing.Model {
	models := []*timing.Model{
		timing.Topology(7, 7, 1),
		timing.Topology(1, 257, 1),
		timing.Topology(32, 32, 1),
	}
	if os.Getenv("LARGE_MESH_10K") != "" {
		models = append(models, timing.Topology(100, 100, 1))
	}
	return models
}

// bcastSizes are the payloads every test broadcasts: empty, one word, a
// partial line, exactly one data-region chunk, one word over it, and
// three chunks.
func bcastSizes(data int) []int {
	return []int{0, 8, 24, data, data + 8, 3 * data}
}

// bcastByte is byte i of call k's payload.
func bcastByte(k, i int) byte { return byte(k*131 + i*7 + i>>8 + 1) }

// runBroadcasts runs seq on every core of the model's chip, each core
// entering each call after a skew that differs per core and per call.
// Before every call the root writes the call's payload and every other
// core scribbles over its buffer; after it every core must hold the
// payload bit for bit. It returns the cores' finish ticks.
func runBroadcasts(t *testing.T, model *timing.Model, seq []bcastCall) []simtime.Time {
	t.Helper()
	chip := scc.New(model)
	defer chip.Release()
	comm := NewComm(chip)
	p, maxBytes := model.NumCores(), 0
	for _, call := range seq {
		maxBytes = max(maxBytes, call.nBytes)
	}
	finish := make([]simtime.Time, p)
	bad := make([]string, 0, 4)
	chip.Launch(func(c *scc.Core) {
		u := comm.UE(c.ID)
		buf, msg := c.Alloc(maxBytes), c.Alloc(8)
		for k, call := range seq {
			data := c.PrivBytes(buf, call.nBytes)
			for i := range data {
				if data[i] = bcastByte(k, i); c.ID != call.root {
					data[i] = ^data[i]
				}
			}
			c.ComputeCycles(int64((c.ID*7919 + k*104729) % 2003))
			u.BroadcastTree(NBCosts{Post: 100, Wait: 100}, call.root, buf, call.nBytes)
			for i, b := range data {
				if b != bcastByte(k, i) && len(bad) < cap(bad) {
					bad = append(bad, fmt.Sprintf("call %d (root %d, %d B): core %d byte %d", k, call.root, call.nBytes, c.ID, i))
					break
				}
			}
			switch call.then {
			case thenBarrierTree:
				u.BarrierTree()
			case thenBarrier:
				u.Barrier()
			case thenSendRecv:
				tree := NewBinomial(call.root, c.ID, p)
				for child := range tree.Children(true) {
					u.Recv(child, msg, 8)
				}
				if tree.Parent >= 0 {
					u.Send(tree.Parent, msg, 8)
				}
			}
		}
		finish[c.ID] = c.Now()
	})
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
	if len(bad) > 0 {
		t.Fatalf("%d cores: wrong payload: %v", p, bad)
	}
	return finish
}

// TestBroadcastTreeDeliversEveryPayload broadcasts every payload size
// from root 0, the last core and a middle one.
func TestBroadcastTreeDeliversEveryPayload(t *testing.T) {
	for _, m := range bcastModels() {
		t.Run(fmt.Sprint(m.NumCores()), func(t *testing.T) {
			p := m.NumCores()
			var seq []bcastCall
			for _, root := range []int{0, p - 1, p / 2} {
				for _, n := range bcastSizes(m.MPBDataBytes()) {
					seq = append(seq, bcastCall{root: root, nBytes: n})
				}
			}
			runBroadcasts(t, m, seq)
		})
	}
}

// TestBroadcastTreeRotatingRootsAreIsolated runs 300 broadcasts of every
// size from rotating roots, so every parent/child pair swaps roles,
// each followed by a tree barrier, a central barrier or a Send/Recv up
// every tree edge on the same pairs and flag lines. 300 calls run past
// where a byte generation would wrap; the 0/1 flags must not care. A
// rerun must finish every core on the same tick.
func TestBroadcastTreeRotatingRootsAreIsolated(t *testing.T) {
	for _, m := range bcastModels() {
		t.Run(fmt.Sprint(m.NumCores()), func(t *testing.T) {
			p, sizes := m.NumCores(), bcastSizes(m.MPBDataBytes())
			seq := make([]bcastCall, 300)
			for k := range seq {
				n := sizes[k%3]
				if k%25 == 0 { // chunked payloads: rarer, they cost the host most
					n = sizes[3+k/25%3]
				}
				seq[k] = bcastCall{root: (k * 7919) % p, nBytes: n, then: bcastThen(k % 4)}
			}
			first := runBroadcasts(t, m, seq)
			if again := runBroadcasts(t, m, seq); fmt.Sprint(again) != fmt.Sprint(first) {
				t.Fatalf("%d cores: rerun finished on different ticks", p)
			}
		})
	}
}
