// Package simtime provides a deterministic, process-oriented
// discrete-event simulation engine.
//
// The engine models virtual time in integer ticks. One tick is 0.625 ns,
// chosen so that both SCC clock domains are integral: one core cycle at
// 533 1/3 MHz is exactly 3 ticks and one mesh or DRAM cycle at 800 MHz is
// exactly 2 ticks. One microsecond is 1600 ticks.
//
// Simulated programs run as processes (see Proc). Each process executes on
// a coroutine of its own, and exactly one runs at a time: Engine.Run
// switches to the process the next event wakes, and a blocking process
// switches back (or keeps running inline when the next event is its own
// wake-up), so simulations are fully deterministic: two runs of the same
// program produce identical event orders and identical virtual
// timestamps.
package simtime

import "fmt"

// Time is a point in virtual time, measured in ticks since the start of
// the simulation. One tick is 0.625 ns.
type Time int64

// Duration is a span of virtual time in ticks.
type Duration = Time

// Tick granularity constants. The tick was chosen as the greatest common
// divisor of the SCC's 533 1/3 MHz core period (1.875 ns) and 800 MHz
// mesh/DRAM period (1.25 ns).
const (
	// TicksPerMicrosecond converts between ticks and wall microseconds.
	TicksPerMicrosecond Time = 1600
	// TicksPerCoreCycle is the length of one core clock cycle (533 MHz
	// domain) in ticks.
	TicksPerCoreCycle Time = 3
	// TicksPerMeshCycle is the length of one mesh/DRAM clock cycle
	// (800 MHz domain) in ticks.
	TicksPerMeshCycle Time = 2
)

// CoreCycles returns the duration of n core clock cycles.
func CoreCycles(n int64) Duration { return Time(n) * TicksPerCoreCycle }

// MeshCycles returns the duration of n mesh clock cycles.
func MeshCycles(n int64) Duration { return Time(n) * TicksPerMeshCycle }

// Microseconds returns the duration of n microseconds of virtual time.
func Microseconds(n int64) Duration { return Time(n) * TicksPerMicrosecond }

// Micros reports t as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(TicksPerMicrosecond) }

// Millis reports t as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return t.Micros() / 1000 }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return t.Micros() / 1e6 }

// String formats the time with an adaptive unit, e.g. "12.5us" or "3.2ms".
func (t Time) String() string {
	us := t.Micros()
	switch {
	case t < 0:
		return fmt.Sprintf("%dticks", int64(t))
	case us < 1:
		return fmt.Sprintf("%dns", int64(t)*625/1000)
	case us < 1000:
		return fmt.Sprintf("%.2fus", us)
	case us < 1e6:
		return fmt.Sprintf("%.2fms", us/1000)
	default:
		return fmt.Sprintf("%.3fs", us/1e6)
	}
}
