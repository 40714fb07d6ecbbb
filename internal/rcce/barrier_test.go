package rcce

import (
	"fmt"
	"os"
	"testing"

	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
)

// barrierKind is one barrier a core may call in checkBarrierOrder.
type barrierKind int

const (
	kindTree barrierKind = iota
	kindCentral
)

// checkBarrierOrder runs seq's barriers in order on every core of the
// model's chip. Each core enters each barrier after a delay that differs
// per core and per barrier, and core b mod p enters barrier b last by a
// wide margin, so the straggler walks the whole chip. The test fails if
// any core leaves a barrier before the last core entered it: the one
// property every barrier must have, whatever its tree, generation or
// flag roles.
func checkBarrierOrder(t *testing.T, model *timing.Model, seq []barrierKind) {
	t.Helper()
	chip := scc.New(model)
	defer chip.Release()
	comm := NewComm(chip)
	lastIn := make([]simtime.Time, len(seq))
	firstOut := make([]simtime.Time, len(seq))
	for b := range firstOut {
		firstOut[b] = simtime.Time(1<<63 - 1)
	}
	chip.Launch(func(c *scc.Core) {
		u := comm.UE(c.ID)
		for b, kind := range seq {
			delay := (c.ID*7919 + b*104729) % 2003
			if c.ID == b%model.NumCores() {
				delay += 100_000
			}
			c.ComputeCycles(int64(delay))
			lastIn[b] = max(lastIn[b], c.Now())
			if kind == kindTree {
				u.BarrierTree()
			} else {
				u.Barrier()
			}
			firstOut[b] = min(firstOut[b], c.Now())
		}
	})
	if err := chip.Run(); err != nil {
		t.Fatal(err)
	}
	for b := range seq {
		if firstOut[b] < lastIn[b] {
			t.Fatalf("%d cores, barrier %d (kind %d): a core left at tick %d, before the last core entered at %d",
				model.NumCores(), b, seq[b], firstOut[b], lastIn[b])
		}
	}
}

// TestBarrierTreeSeparatesEntryFromExit checks the tree barrier over
// 300 consecutive barriers, so the byte generation wraps past 255, at
// core counts that leave the binomial tree ragged (49, 257) and full
// (1,024); 10,000 cores run under LARGE_MESH_10K=1.
func TestBarrierTreeSeparatesEntryFromExit(t *testing.T) {
	models := []*timing.Model{
		timing.Topology(7, 7, 1),
		timing.Topology(1, 257, 1),
		timing.Topology(32, 32, 1),
	}
	if os.Getenv("LARGE_MESH_10K") != "" {
		models = append(models, timing.Topology(100, 100, 1))
	}
	seq := make([]barrierKind, 300)
	for _, m := range models {
		t.Run(fmt.Sprint(m.NumCores()), func(t *testing.T) {
			checkBarrierOrder(t, m, seq)
		})
	}
}

// TestBarrierTreeAndCentralDoNotAlias runs 256 central barriers between
// two tree barriers. The central barrier's generation wraps back to the
// value the tree barrier's stands at; only separate flag roles and
// counters keep either barrier's waits from being satisfied by the
// other's writes.
func TestBarrierTreeAndCentralDoNotAlias(t *testing.T) {
	seq := make([]barrierKind, 258)
	for b := 1; b <= 256; b++ {
		seq[b] = kindCentral
	}
	checkBarrierOrder(t, timing.Topology(1, 257, 1), seq)
}
