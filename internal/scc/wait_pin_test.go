package scc

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"scc/internal/metrics"
	"scc/internal/simtime"
	"scc/internal/timing"
)

// testdata/wait_pin.txt was recorded on the commit *before* the five
// wait loops became one engine (flagSigs/anyWaiters/waiting and a loop
// per public wait), so this test proves the fold moved no tick, no probe
// charge and no accounting: per (public wait, scenario) the return
// values, the tick the waiter resumes at, its Profile, the flag
// counters, the flag phases, the wait histogram, every recorded span
// and the run error.
//
// Regenerate only when the workload below changes, never to absorb a
// difference:
//
//	WAIT_PIN_UPDATE=1 go test -run TestWaitPin ./internal/scc/
const waitPinPath = "testdata/wait_pin.txt"

const (
	pinWaiter = 0 // the core whose wait is recorded
	pinWriter = 5 // the remote core that satisfies it
	pinTAS    = 7 // the test-and-set register the TAS cells contend for
)

// dropFirstFlag is a FaultHook that loses the writer's first flag write.
type dropFirstFlag struct{ dropped bool }

func (h *dropFirstFlag) StallCore(int, simtime.Time) simtime.Duration { return 0 }
func (h *dropFirstFlag) CoreDead(int, simtime.Time) bool              { return false }
func (h *dropFirstFlag) FilterMPBWrite(int, int, []byte, simtime.Time) bool {
	return false
}
func (h *dropFirstFlag) DropFlagWrite(writer, _ int, _ simtime.Time) bool {
	if writer != pinWriter || h.dropped {
		return false
	}
	h.dropped = true
	return true
}

// pinWaits names the five public waits; bounded says whether the wait
// takes a limit, multi whether it watches several flags.
var pinWaits = []struct {
	name           string
	bounded, multi bool
	call           func(c *Core, offs []int, limit simtime.Duration) string
}{
	{"WaitFlag", false, false, func(c *Core, offs []int, _ simtime.Duration) string {
		return fmt.Sprintf("waited=%d", c.WaitFlag(offs[0], 1))
	}},
	{"WaitFlagAny", false, true, func(c *Core, offs []int, _ simtime.Duration) string {
		return fmt.Sprintf("i=%d", c.WaitFlagAny(offs, 1))
	}},
	{"WaitFlagMatch", true, false, func(c *Core, offs []int, limit simtime.Duration) string {
		v, ok := c.WaitFlagMatch(offs[0], limit, func(v byte) bool { return v == 1 })
		return fmt.Sprintf("v=%d,ok=%t", v, ok)
	}},
	{"WaitFlagsMatch", true, true, func(c *Core, offs []int, limit simtime.Duration) string {
		i, v, ok := c.WaitFlagsMatch(offs, limit, func(_ int, v byte) bool { return v == 1 })
		return fmt.Sprintf("i=%d,v=%d,ok=%t", i, v, ok)
	}},
	{"TASAcquire", false, false, nil},
}

var pinScenarios = []string{"satisfied", "set-later", "bulk-write", "expires", "past-deadline", "dropped", "second-of-three"}

// pinCell runs one (wait, scenario) cell on a fresh chip and renders its
// line. Cells that do not exist (a limit on an unbounded wait, a second
// flag for a single-flag wait, a flag for a register) render "n/a" so
// the file stays a full grid.
func pinCell(w int, scen string) string {
	wait := pinWaits[w]
	tas := wait.call == nil
	chip := New(timing.Default())
	reg := metrics.New(chip.NumCores())
	chip.SetMetrics(reg)
	// Three flags on two owners; byte 3 of the waiter's second line is the
	// one the single-flag waits use and the bulk write covers.
	line := chip.MPBBase(pinWaiter) + 32
	flags := []int{line + 3, chip.MPBBase(9) + 40, chip.MPBBase(pinWaiter) + 100}
	offs := flags
	if !wait.multi {
		offs = flags[:1]
	}

	var limit simtime.Duration
	var preset bool         // the waiter satisfies itself before waiting
	var write func(c *Core) // what the remote writer does after its delay
	setFlag := func(off int) func(c *Core) { return func(c *Core) { c.SetFlag(off, 1) } }
	switch scen {
	case "satisfied":
		preset = true
	case "set-later":
		write = setFlag(flags[0])
	case "bulk-write":
		if tas {
			return "n/a"
		}
		write = func(c *Core) {
			buf := make([]byte, 32)
			buf[3] = 1
			c.MPBWrite(line, buf)
		}
	case "expires", "past-deadline":
		if !wait.bounded {
			return "n/a"
		}
		limit = 3000
		if scen == "past-deadline" {
			limit = 1 // shorter than the first probe
		}
	case "dropped":
		if tas {
			return "n/a"
		}
		chip.Fault = &dropFirstFlag{}
		write = setFlag(flags[0])
		if wait.bounded {
			limit = 20000
		}
	case "second-of-three":
		if !wait.multi {
			return "n/a"
		}
		write = setFlag(flags[1])
	}

	var ret string
	var resume simtime.Time
	var spans []string
	waiter := chip.Cores[pinWaiter]
	waiter.SetSpanRecorder(func(label string, start, end simtime.Time) {
		spans = append(spans, fmt.Sprintf("%s[%d,%d]", label, start, end))
	})
	chip.LaunchOne(pinWaiter, func(c *Core) {
		c.ComputeCycles(100) // deferred local latency the wait must flush first
		if tas {
			c.TASAcquire(pinTAS)
			ret = "held"
		} else {
			if preset {
				c.SetFlag(flags[0], 1)
			}
			ret = wait.call(c, offs, limit)
		}
		resume = c.Now()
	})
	switch {
	case tas && write != nil:
		// The writer takes the register first and holds it over the delay.
		chip.LaunchOne(pinWriter, func(c *Core) {
			c.TASAcquire(pinTAS)
			c.ComputeCycles(2000)
			c.TASRelease(pinTAS)
		})
	case write != nil:
		chip.LaunchOne(pinWriter, func(c *Core) {
			c.ComputeCycles(2000)
			write(c)
		})
	}
	err := chip.Run()

	prof := waiter.Prof()
	snap := reg.Snapshot()
	ctr := snap.Cores[pinWaiter].Counters
	ph := snap.Cores[pinWaiter].Phases
	errText := "nil"
	if err != nil {
		errText = strings.ReplaceAll(err.Error(), "\n", " ")
	}
	return fmt.Sprintf("ret=%s resume=%d prof.wait=%d prof.waits=%d probes=%d tasprobes=%d blocked=%d phase.wait=%d phase.sync=%d hist=%v spans=%v err=%s",
		ret, resume, prof.FlagWait, prof.FlagWaits,
		ctr[metrics.CtrFlagProbes.String()], ctr[metrics.CtrTASProbes.String()], ctr[metrics.CtrBlockedWaits.String()],
		ph[metrics.PhaseFlagWait.String()], ph[metrics.PhaseFlagSync.String()],
		snap.WaitHist, spans, errText)
}

func TestWaitPin(t *testing.T) {
	var lines []string
	for w := range pinWaits {
		for _, scen := range pinScenarios {
			lines = append(lines, fmt.Sprintf("%s/%s: %s", pinWaits[w].name, scen, pinCell(w, scen)))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if os.Getenv("WAIT_PIN_UPDATE") != "" {
		if err := os.WriteFile(waitPinPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cells)", waitPinPath, len(lines))
		return
	}
	raw, err := os.ReadFile(waitPinPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%s has %d cells, the workload %d", waitPinPath, len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("cell %d moved:\n  want: %s\n  got:  %s", i+1, want[i], lines[i])
		}
	}
}
