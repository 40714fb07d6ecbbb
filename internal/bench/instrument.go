package bench

import (
	"fmt"

	"scc/internal/metrics"
	"scc/internal/simtime"
	"scc/internal/timing"
	"scc/internal/trace"
)

// InstrumentedRun is one fully observed benchmark cell: the same average
// latency Measure reports, plus the metrics snapshot and the span
// timeline of the whole run (warm-up and barriers included).
type InstrumentedRun struct {
	Latency simtime.Duration
	Metrics *metrics.Snapshot
	Spans   []trace.Span
}

// MeasureInstrumented is Measure with observability attached: the fresh
// chip gets a metrics registry and every core a span recorder. The
// virtual-time result is identical to Measure's for the same arguments -
// the hooks only read state and apply already-deferred local latency
// early - which the determinism test in instrument_test.go pins down.
func MeasureInstrumented(model *timing.Model, op Op, st Stack, n, reps int) InstrumentedRun {
	pr := stackProgram(model, op, st, n, reps)
	pr.metrics = metrics.New(model.NumCores())
	pr.spans = &trace.Recorder{}
	lat, err := pr.run()
	if err != nil {
		panic(fmt.Sprintf("bench: %s/%s n=%d: %v", op, st.Name, n, err))
	}
	return InstrumentedRun{Latency: lat, Metrics: pr.metrics.Snapshot(), Spans: pr.spans.Spans()}
}
