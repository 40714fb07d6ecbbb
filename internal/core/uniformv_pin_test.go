package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/timing"
)

// The fixed-count Allgather, Alltoall, Scatter and Gather are the
// uniform-block case of their V bodies. testdata/uniformv_pin.txt was
// recorded on the commit *before* that fold (the four hand-written
// fixed-count bodies), so this test proves the fold moved no tick and no
// byte: per (op, np, nPer, transport) the chip's final virtual time and
// a hash of every core's result buffer.
//
// Regenerate only when the workload below changes, never to absorb a
// difference:
//
//	UNIFORMV_PIN_UPDATE=1 go test -run TestUniformVTickPin ./internal/core/
const uniformVPinPath = "testdata/uniformv_pin.txt"

// pinRun executes one fixed-count collective on a fresh chip and returns
// the final tick and an FNV-1a hash over every core's output bits.
func pinRun(t *testing.T, model *timing.Model, cfg Config, op string, nPer int) (int64, uint64) {
	t.Helper()
	chip := scc.New(model)
	comm := rcce.NewComm(chip)
	p := chip.NumCores()
	root := p / 3
	out := make([][]float64, p)
	chip.Launch(func(c *scc.Core) {
		x := NewCtx(comm.UE(c.ID), cfg)
		defer x.Release()
		// Every buffer is p*nPer long so one layout serves all four ops.
		src := c.AllocF64(p * nPer)
		dst := c.AllocF64(p * nPer)
		v := make([]float64, p*nPer)
		for i := range v {
			v[i] = float64(c.ID*100003 + i)
		}
		c.WriteF64s(src, v)
		var err error
		switch op {
		case "allgather":
			err = x.Allgather(src, nPer, dst)
		case "alltoall":
			err = x.Alltoall(src, dst, nPer)
		case "scatter":
			err = x.Scatter(root, src, nPer, dst)
		case "gather":
			err = x.Gather(root, src, nPer, dst)
		}
		if err != nil {
			t.Errorf("%s np=%d nPer=%d %s core %d: %v", op, p, nPer, cfg.Name(), c.ID, err)
		}
		got := make([]float64, p*nPer)
		c.ReadF64s(dst, got)
		out[c.ID] = got
	})
	if err := chip.Run(); err != nil {
		t.Fatalf("%s np=%d nPer=%d %s: %v", op, p, nPer, cfg.Name(), err)
	}
	h := fnv.New64a()
	var b [8]byte
	for _, vec := range out {
		for _, f := range vec {
			u := math.Float64bits(f)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return int64(chip.Now()), h.Sum64()
}

func TestUniformVTickPin(t *testing.T) {
	models := []*timing.Model{
		timing.Topology(1, 1, 1), timing.Topology(1, 1, 2), timing.Topology(1, 7, 1), timing.Default(),
	}
	var lines []string
	for _, op := range []string{"allgather", "alltoall", "scatter", "gather"} {
		for _, m := range models {
			for _, nPer := range []int{0, 1, 69} {
				for _, cfg := range []Config{ConfigBlocking, ConfigIRCCE, ConfigLightweight} {
					tick, sum := pinRun(t, m, cfg, op, nPer)
					lines = append(lines, fmt.Sprintf("%s np=%d nPer=%d %s tick=%d out=%016x",
						op, m.NumCores(), nPer, cfg.Name(), tick, sum))
				}
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if os.Getenv("UNIFORMV_PIN_UPDATE") != "" {
		if err := os.WriteFile(uniformVPinPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cells)", uniformVPinPath, len(lines))
		return
	}
	raw, err := os.ReadFile(uniformVPinPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%s has %d cells, the workload %d", uniformVPinPath, len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("cell %d moved:\n  want: %s\n  got:  %s", i+1, want[i], lines[i])
		}
	}
}
