package sccsim_test

import (
	"errors"
	"runtime"
	"testing"

	sccsim "scc"
	"scc/internal/simtime"
)

// Every process runs on a coroutine suspended inside its own call
// stack, so every abnormal exit must unwind 48 of them by hand. This
// pins the chaos-kill path end to end: an injected core death panics
// the victim's process, the survivors deadlock, Run returns a typed
// ErrCoreDead — and nothing is left suspended mid-process. The
// coroutines are pooled workers that legitimately stay parked after a
// run; draining the pool before counting separates that expected state
// from a real leak, and because parking and retiring are both
// synchronous the count is exact without waiting.
func TestChaosKillLeavesNoGoroutines(t *testing.T) {
	simtime.DrainWorkerPool()
	base := runtime.NumGoroutine()

	plan := sccsim.NewFaultPlan()
	plan.Add(sccsim.Fault{Kind: sccsim.FaultCoreDie, At: simtime.Time(sccsim.Microseconds(150)), Core: 7})
	sys := sccsim.New(sccsim.WithFaults(plan))
	err := sys.Run(func(r *sccsim.Rank) {
		src := r.AllocF64(256)
		dst := r.AllocF64(256)
		for k := 0; k < 4; k++ {
			if err := r.Allreduce(src, dst, 256); err != nil {
				return
			}
		}
	})
	if !errors.Is(err, sccsim.ErrCoreDead) {
		t.Fatalf("err = %v, want ErrCoreDead", err)
	}

	simtime.DrainWorkerPool()
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("chaos kill leaked %d goroutines past baseline %d\n%s", n-base, base, buf)
	}
}
