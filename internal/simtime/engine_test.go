package simtime

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if got := Microseconds(1); got != 1600 {
		t.Fatalf("Microseconds(1) = %d, want 1600", got)
	}
	if got := CoreCycles(1); got != 3 {
		t.Fatalf("CoreCycles(1) = %d, want 3", got)
	}
	if got := MeshCycles(1); got != 2 {
		t.Fatalf("MeshCycles(1) = %d, want 2", got)
	}
	// 533.33 MHz * 1.875ns = 1; check the ratio core:mesh = 1.5 exactly.
	if 2*CoreCycles(3) != 3*MeshCycles(3) {
		t.Fatal("core:mesh cycle ratio must be exactly 3:2")
	}
	if got := Microseconds(5).Micros(); got != 5.0 {
		t.Fatalf("Micros() = %v, want 5.0", got)
	}
	if got := Microseconds(2500).Millis(); got != 2.5 {
		t.Fatalf("Millis() = %v, want 2.5", got)
	}
	if got := Microseconds(3_000_000).Seconds(); got != 3.0 {
		t.Fatalf("Seconds() = %v, want 3.0", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{Time(160), "100ns"},
		{Microseconds(12), "12.00us"},
		{Microseconds(2500), "2.50ms"},
		{Microseconds(4_200_000), "4.200s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestSingleProcSleep(t *testing.T) {
	e := NewEngine()
	var end Time
	e.Spawn("p", func(p *Proc) {
		p.Sleep(CoreCycles(100))
		p.Sleep(Microseconds(2))
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := CoreCycles(100) + Microseconds(2)
	if end != want {
		t.Fatalf("end time = %d, want %d", end, want)
	}
}

func TestInterleavingIsDeterministicByTime(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		for i := 0; i < 4; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				// Different sleep patterns so events interleave.
				for k := 0; k < 3; k++ {
					p.Sleep(Time(10*(i+1) + k))
					log = append(log, fmt.Sprintf("p%d@%d", i, p.Now()))
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		if got := run(); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d diverged:\n%v\nvs\n%v", trial, got, first)
		}
	}
	// Timestamps must be non-decreasing in log order.
	var times []int
	for _, s := range first {
		var id, at int
		fmt.Sscanf(s, "p%d@%d", &id, &at)
		times = append(times, at)
	}
	if !sort.IntsAreSorted(times) {
		t.Fatalf("events executed out of time order: %v", times)
	}
}

func TestSameTimeTieBreaksBySpawnOrderAtStart(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		e.Spawn("p", func(p *Proc) {
			order = append(order, i)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("start order %v, want spawn order", order)
		}
	}
}

func TestSignalBroadcastWakesAllWaiters(t *testing.T) {
	e := NewEngine()
	var sig Signal
	wakeTimes := make([]Time, 3)
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("waiter", func(p *Proc) {
			p.WaitOn(&sig, Site("test signal"))
			wakeTimes[i] = p.Now()
		})
	}
	e.Spawn("signaler", func(p *Proc) {
		p.Sleep(Microseconds(7))
		if sig.Waiters() != 3 {
			t.Errorf("Waiters() = %d, want 3", sig.Waiters())
		}
		sig.Broadcast(p.Engine())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, w := range wakeTimes {
		if w != Microseconds(7) {
			t.Errorf("waiter %d woke at %d, want %d", i, w, Microseconds(7))
		}
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	var sig Signal
	e.Spawn("stuck-one", func(p *Proc) {
		p.WaitOn(&sig, Site("a signal that never comes"))
	})
	e.Spawn("fine", func(p *Proc) {
		p.Sleep(10)
	})
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if msg := err.Error(); !containsAll(msg, "stuck-one", "a signal that never comes") {
		t.Fatalf("deadlock message missing details: %q", msg)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Spawn("bomber", func(p *Proc) {
		p.Sleep(5)
		panic("boom")
	})
	e.Spawn("bystander", func(p *Proc) {
		p.Sleep(1000)
	})
	err := e.Run()
	if err == nil || !containsAll(err.Error(), "bomber", "boom") {
		t.Fatalf("err = %v, want panic report", err)
	}
}

func TestZeroSleepYieldsToSameTimePeers(t *testing.T) {
	// p0 yields; p1, scheduled at the same instant, must run before p0
	// resumes because p0's re-schedule gets a later sequence number.
	e := NewEngine()
	var order []string
	e.Spawn("p0", func(p *Proc) {
		order = append(order, "p0-first")
		p.Yield()
		order = append(order, "p0-second")
	})
	e.Spawn("p1", func(p *Proc) {
		order = append(order, "p1")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"p0-first", "p1", "p0-second"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestManyProcsStress(t *testing.T) {
	const n = 200
	e := NewEngine()
	total := 0
	for i := 0; i < n; i++ {
		i := i
		e.Spawn("worker", func(p *Proc) {
			for k := 0; k < 50; k++ {
				p.Sleep(Time(1 + (i+k)%7))
			}
			total++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if total != n {
		t.Fatalf("completed %d, want %d", total, n)
	}
}

func TestNegativeSleepClampsToZero(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		before := p.Now()
		p.Sleep(-100)
		if p.Now() != before {
			t.Errorf("negative sleep moved time from %d to %d", before, p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: a process that performs a random sequence of sleeps ends at
// exactly the sum of the (clamped) durations.
func TestSleepAccumulationProperty(t *testing.T) {
	f := func(raw []int16) bool {
		e := NewEngine()
		var end Time
		e.Spawn("p", func(p *Proc) {
			for _, d := range raw {
				p.Sleep(Time(d))
			}
			end = p.Now()
		})
		if err := e.Run(); err != nil {
			return false
		}
		var want Time
		for _, d := range raw {
			if d > 0 {
				want += Time(d)
			}
		}
		return end == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: events pop in non-decreasing time order regardless of the
// insertion pattern (exercises the heap through the public API).
func TestEventOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		e := NewEngine()
		var seen []Time
		for i := 0; i < 20; i++ {
			delays := make([]Time, 10)
			for k := range delays {
				delays[k] = Time(rng.Intn(1000))
			}
			e.Spawn("p", func(p *Proc) {
				for _, d := range delays {
					p.Sleep(d)
					seen = append(seen, p.Now())
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				t.Fatalf("trial %d: time went backwards: %d after %d", trial, seen[i], seen[i-1])
			}
		}
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !contains(s, sub) {
			return false
		}
	}
	return true
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
