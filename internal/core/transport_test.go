package core

import (
	"errors"
	"testing"

	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
)

func TestTransportKindStrings(t *testing.T) {
	want := map[TransportKind]string{
		TransportBlocking:    "blocking",
		TransportIRCCE:       "iRCCE",
		TransportLightweight: "lightweight non-blocking",
	}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), w)
		}
	}
	if TransportKind(99).String() == "" {
		t.Error("unknown kind must still stringify")
	}
}

func TestConfigNames(t *testing.T) {
	cases := map[string]Config{
		"blocking":                           ConfigBlocking,
		"iRCCE":                              ConfigIRCCE,
		"lightweight non-blocking":           ConfigLightweight,
		"lightweight non-blocking, balanced": ConfigBalanced,
		"MPB-based Allreduce":                ConfigMPB,
	}
	for want, cfg := range cases {
		if cfg.Name() != want {
			t.Errorf("Name() = %q, want %q", cfg.Name(), want)
		}
	}
	if len(Configs()) != 5 {
		t.Fatalf("Configs() returned %d entries, want 5", len(Configs()))
	}
}

// TestNewCtxWithUnknownTransportIsInvalid: a transport kind outside
// the table is a user error at the context constructor, not a panic.
func TestNewCtxWithUnknownTransportIsInvalid(t *testing.T) {
	chip := scc.New(timing.Default())
	comm := rcce.NewComm(chip)
	for _, k := range []TransportKind{-1, TransportKind(len(transports)), 42} {
		x, err := NewCtxWith(comm.UE(0), Config{Transport: k}, CtxOpts{})
		if x != nil || !errors.Is(err, ErrInvalid) {
			t.Errorf("NewCtxWith(%v) = %v, %v; want nil, ErrInvalid", k, x, err)
		}
	}
}

// pingPong runs ten 64-byte round trips between cores 0 and 1 over the
// endpoint cfg builds and returns the end time.
func pingPong(t *testing.T, m *timing.Model, cfg Config) simtime.Time {
	t.Helper()
	chip := scc.New(m)
	comm := rcce.NewComm(chip)
	for id := 0; id < 2; id++ {
		chip.LaunchOne(id, func(c *scc.Core) {
			ep, err := newEndpoint(comm.UE(id), cfg, nil)
			if err != nil {
				panic(err)
			}
			a := c.AllocF64(8)
			for i := 0; i < 10; i++ {
				if id == 0 {
					ep.Send(1, a, 64)
					ep.Recv(1, a, 64)
				} else {
					ep.Recv(0, a, 64)
					ep.Send(0, a, 64)
				}
			}
		})
	}
	if err := chip.Run(); err != nil {
		t.Fatalf("%v: %v", cfg.Transport, err)
	}
	return chip.Now()
}

// TestTransportRowsComeFromModel: every row of the transport table
// prices from the timing model, so raising the row's post constant slows
// a ping-pong on both the plain and the hardened endpoint.
func TestTransportRowsComeFromModel(t *testing.T) {
	raise := map[TransportKind]func(m *timing.Model){
		TransportBlocking:    func(m *timing.Model) { m.OverheadBlockingCall += 4000 },
		TransportIRCCE:       func(m *timing.Model) { m.OverheadIRCCEPost += 4000 },
		TransportLightweight: func(m *timing.Model) { m.OverheadLightweightPost += 4000 },
	}
	if len(raise) != len(transports) {
		t.Fatalf("test covers %d rows, table has %d", len(raise), len(transports))
	}
	pol := rcce.DefaultPolicy()
	for kind, bump := range raise {
		for _, cfg := range []Config{{Transport: kind}, {Transport: kind, Recovery: &pol}} {
			slow := timing.Default()
			bump(slow)
			if s, f := pingPong(t, slow, cfg), pingPong(t, timing.Default(), cfg); s <= f {
				t.Errorf("%v (hardened: %v): raised row not reflected: %v vs %v", kind, cfg.Recovery != nil, s, f)
			}
		}
	}
}

// runPairExchanges runs rounds 552-element pairwise exchanges between
// cores 0 and 1 over a fault-free endpoint of the given kind.
func runPairExchanges(kind TransportKind, rounds int) {
	const n = 8 * 552
	chip := scc.New(timing.Default())
	comm := rcce.NewComm(chip)
	for id := 0; id < 2; id++ {
		chip.LaunchOne(id, func(c *scc.Core) {
			ep := NewCtx(comm.UE(id), Config{Transport: kind}).Endpoint()
			src, dst := c.Alloc(n), c.Alloc(n)
			for i := 0; i < rounds; i++ {
				ep.Exchange(1-id, src, n, 1-id, dst, n)
			}
		})
	}
	if err := chip.Run(); err != nil {
		panic(err)
	}
}

// TestPairExchangeAllocFree: no transport allocates per exchange — the
// non-blocking stacks post into the UE's two request slots. The
// per-exchange cost is the slope between a short and a long run
// (construction cancels).
func TestPairExchangeAllocFree(t *testing.T) {
	for k := range transports {
		kind := TransportKind(k)
		a := testing.AllocsPerRun(3, func() { runPairExchanges(kind, 10) })
		b := testing.AllocsPerRun(3, func() { runPairExchanges(kind, 110) })
		if got := (b - a) / 100; got > 0.05 {
			t.Errorf("%v: a pair exchange allocates %.3f objects per exchange; budget 0.05", kind, got)
		}
	}
}

// exchangeRing runs one full ring round on every core with the given
// transport and returns the end-to-end time plus the received data.
func exchangeRing(t *testing.T, kind TransportKind, n int) (simtime.Time, [][]float64) {
	t.Helper()
	chip := scc.New(timing.Default())
	comm := rcce.NewComm(chip)
	out := make([][]float64, 48)
	chip.Launch(func(c *scc.Core) {
		ue := comm.UE(c.ID)
		ep := NewCtx(ue, Config{Transport: kind}).Endpoint()
		p := ue.NumUEs()
		right, left := (c.ID+1)%p, (c.ID+p-1)%p
		src := c.AllocF64(n)
		dst := c.AllocF64(n)
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(c.ID)*100 + float64(i)
		}
		c.WriteF64s(src, v)
		ep.Exchange(right, src, 8*n, left, dst, 8*n)
		got := make([]float64, n)
		c.ReadF64s(dst, got)
		out[c.ID] = got
	})
	if err := chip.Run(); err != nil {
		t.Fatalf("%v: %v", kind, err)
	}
	return chip.Now(), out
}

func TestExchangeCorrectAcrossTransports(t *testing.T) {
	for _, kind := range []TransportKind{TransportBlocking, TransportIRCCE, TransportLightweight} {
		_, out := exchangeRing(t, kind, 40)
		for me := 0; me < 48; me++ {
			left := (me + 47) % 48
			for i := 0; i < 40; i++ {
				want := float64(left)*100 + float64(i)
				if out[me][i] != want {
					t.Fatalf("%v: core %d elem %d = %v, want %v", kind, me, i, out[me][i], want)
				}
			}
		}
	}
}

func TestBlockingExchangeSlowerThanNonBlocking(t *testing.T) {
	// The odd-even double phase makes the blocking ring round strictly
	// slower than the overlapped non-blocking one (the Fig. 4 vs Fig. 5
	// difference).
	blk, _ := exchangeRing(t, TransportBlocking, 64)
	lw, _ := exchangeRing(t, TransportLightweight, 64)
	if lw >= blk {
		t.Fatalf("lightweight round (%v) not faster than blocking (%v)", lw, blk)
	}
}

func TestPairExchangeSymmetric(t *testing.T) {
	// Pairwise symmetric exchange between same-parity partners (the case
	// odd-even cannot handle) must complete under every transport.
	for _, kind := range []TransportKind{TransportBlocking, TransportIRCCE, TransportLightweight} {
		chip := scc.New(timing.Default())
		comm := rcce.NewComm(chip)
		got := make([]float64, 2)
		// Cores 2 and 4: same parity.
		for _, pair := range [][2]int{{2, 4}} {
			a, b := pair[0], pair[1]
			chip.LaunchOne(a, func(c *scc.Core) {
				ue := comm.UE(a)
				ep := NewCtx(ue, Config{Transport: kind}).Endpoint()
				src := c.AllocF64(1)
				dst := c.AllocF64(1)
				c.WriteF64s(src, []float64{float64(a)})
				ep.Exchange(b, src, 8, b, dst, 8)
				v := make([]float64, 1)
				c.ReadF64s(dst, v)
				got[0] = v[0]
			})
			chip.LaunchOne(b, func(c *scc.Core) {
				ue := comm.UE(b)
				ep := NewCtx(ue, Config{Transport: kind}).Endpoint()
				src := c.AllocF64(1)
				dst := c.AllocF64(1)
				c.WriteF64s(src, []float64{float64(b)})
				ep.Exchange(a, src, 8, a, dst, 8)
				v := make([]float64, 1)
				c.ReadF64s(dst, v)
				got[1] = v[0]
			})
		}
		if err := chip.Run(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if got[0] != 4 || got[1] != 2 {
			t.Fatalf("%v: pair exchange wrong: %v", kind, got)
		}
	}
}
