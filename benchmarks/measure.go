package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"scc/internal/synth"
)

// refShare is the reference time spent per unit of measured time: after
// every unit the harness runs enough reference slices to cover this
// share of the time the unit just took, so the reference samples the
// host's speed where and when the units ran.
const refShare = 0.05

// session runs the units of one workload and keeps the books every mode
// shares: attempts, failures, and the simulated latency each unit must
// reproduce in every pass.
type session struct {
	p         *plan
	ref       *refKernel
	tr        *tracer
	firstVirt []float64
	seen      []bool
	attempted int
	failed    int
	failures  []string
}

// setupTimes are the host times of the set-up stages before the first
// unit.
type setupTimes struct {
	registry, model time.Duration
}

// newSession performs the set-up a user of the simulator waits for
// before the first result: load the synthesized-schedule registry, build
// and validate the model and generate the inputs from the seed, run the
// first unit cold.
func newSession(w workload, seed int64, tr *tracer) (*session, setupTimes) {
	var st setupTimes
	tr.setUnit("setup")
	span, t0 := tr.begin("bench.registry_load"), time.Now()
	synth.RegisterDefaults()
	st.registry = time.Since(t0)
	tr.end(span)

	span, t0 = tr.begin("timing.model_build"), time.Now()
	p := w.build(seed)
	st.model = time.Since(t0)
	tr.end(span)

	s := &session{p: p, tr: tr, ref: newRefKernel(),
		firstVirt: make([]float64, len(p.units)), seen: make([]bool, len(p.units))}
	s.runUnit(0)
	return s, st
}

func (s *session) close() { s.ref.stop() }

func (s *session) fail(id string, err error) {
	s.failed++
	s.failures = append(s.failures, fmt.Sprintf("%s: %v", id, err))
}

// check counts one attempted unit and holds it to its own check and to
// the simulated latency it reported the first time.
func (s *session) check(i int, id string, virt float64, err error) {
	s.attempted++
	switch {
	case err != nil:
		s.fail(id, err)
	case !(virt > 0):
		s.fail(id, fmt.Errorf("reported simulated latency %v", virt))
	case s.seen[i] && virt != s.firstVirt[i]:
		s.fail(id, fmt.Errorf("simulated latency %.6fus differs from the first pass's %.6fus", virt, s.firstVirt[i]))
	}
	if !s.seen[i] {
		s.seen[i], s.firstVirt[i] = true, virt
	}
}

// checkExtra counts a harness-built unit or a probe group that is not
// part of the pass.
func (s *session) checkExtra(id string, err error) {
	s.attempted++
	if err != nil {
		s.fail(id, err)
	}
}

// guard turns a panic in a layer into an error: a failed unit, not a
// dead benchmark.
func guard(f func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return f()
}

// runUnit runs unit i with its check.
func (s *session) runUnit(i int) (host, cpu time.Duration, virt float64) {
	u := s.p.units[i]
	s.tr.setUnit(u.id)
	span := s.tr.begin("unit")
	cpu0, t0 := cpuTime(), time.Now()
	var out unitOut
	err := guard(func() (err error) {
		out, err = u.run(s.tr)
		return err
	})
	host, cpu = time.Since(t0), cpuTime()-cpu0
	s.tr.end(span)
	s.check(i, u.id, out.virtUS, err)
	return host, cpu, out.virtUS
}

// runRep runs the workload's harness-built unit with spans and the
// chip's counters on.
func (s *session) runRep() repOut {
	s.tr.setUnit("representative")
	var rep repOut
	s.checkExtra("representative unit", guard(func() (err error) {
		rep, err = s.p.rep(s.tr, true)
		return err
	}))
	s.tr.setUnit("")
	return rep
}

// passStats are the sums over measured passes.
type passStats struct {
	host, cpu time.Duration
	clock     refClock
	virtUS    float64 // of the last pass
	unitMS    []float64
}

// pass runs every unit once. With interleave set, each unit is followed
// by reference slices covering refShare of its time; otherwise the
// caller brackets the pass with slices itself.
func (s *session) pass(ps *passStats, interleave bool) {
	span := s.tr.begin("pass")
	ps.virtUS = 0
	for i := range s.p.units {
		host, cpu, virt := s.runUnit(i)
		ps.host += host
		ps.cpu += cpu
		ps.virtUS += virt
		ps.unitMS = append(ps.unitMS, host.Seconds()*1e3)
		if interleave {
			k := max(1, int(math.Round(refShare*host.Seconds()/REF_NOMINAL_S)))
			s.tr.setUnit("ref")
			ps.clock.add(s.ref.slices(k), k)
		}
	}
	s.tr.setUnit("")
	s.tr.end(span)
}

// passesFor sizes the measured phase: as many passes as fit -seconds on
// the host the workloads were sized on, at least two so that the
// pass-to-pass identity of simulated time is checked.
func passesFor(w workload, seconds float64) int {
	return max(2, int(math.Round(seconds/w.passSeconds)))
}

// cpuTime is the user+system CPU time of this process so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the resident-set high-water mark of this process.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) >= 1 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// memDelta is what the Go runtime did between two MemStats readings.
type memDelta struct {
	allocMB, allocsK, gcCycles, gcPauseMS, heapPeakMB float64
}

func memSince(before *runtime.MemStats) memDelta {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return memDelta{
		allocMB:    float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
		allocsK:    float64(after.Mallocs-before.Mallocs) / 1e3,
		gcCycles:   float64(after.NumGC - before.NumGC),
		gcPauseMS:  float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
		heapPeakMB: float64(after.HeapSys) / 1e6,
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
