package rcce_test

import (
	"testing"

	"scc/internal/rcce"
	"scc/internal/rckmpi"
	"scc/internal/scc"
	"scc/internal/timing"
)

// BenchmarkBlockingTransfer times one blocking 4,416-B message (the
// Fig. 9 size) between two cores on blocking RCCE and on RCKMPI's
// window channel, and reports the engine's events and process switches
// per message (Engine.SchedStats): a message runs in the engine, so its
// process resumes once however many chunks or windows it crosses.
func BenchmarkBlockingTransfer(b *testing.B) {
	const n = 4416
	for _, row := range []struct {
		name string
		rck  bool
	}{{"rcce", false}, {"rckmpi", true}} {
		b.Run(row.name, func(b *testing.B) {
			chip := scc.New(timing.Default())
			defer chip.Release()
			comm := rcce.NewComm(chip)
			for id := range 2 {
				chip.LaunchOne(id, func(c *scc.Core) {
					ue, buf := comm.UE(id), c.Alloc(n)
					for range b.N {
						switch {
						case row.rck && id == 0:
							rckmpi.New(ue).Send(1, buf, n)
						case row.rck:
							rckmpi.New(ue).Recv(0, buf, n)
						case id == 0:
							ue.Send(1, buf, n)
						default:
							ue.Recv(0, buf, n)
						}
					}
				})
			}
			b.ResetTimer()
			if err := chip.Run(); err != nil {
				b.Fatal(err)
			}
			h, f := chip.Engine.SchedStats()
			b.ReportMetric(float64(h)/float64(b.N), "switches/op")
			b.ReportMetric(float64(h+f)/float64(b.N), "events/op")
		})
	}
}
