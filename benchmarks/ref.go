package main

import "time"

// REF_NOMINAL_S is what one reference slice takes on a quiet host of the
// kind this benchmark was sized on. It is fixed forever: every
// ref-normalised metric is "measured time x REF_NOMINAL_S / measured
// slice time", so changing it rescales every committed number.
const REF_NOMINAL_S = 0.0100

// refRoundTrips is the length of one reference slice. Frozen with
// REF_NOMINAL_S.
const refRoundTrips = 20000

// refKernel is the frozen reference load: two goroutines bouncing a token
// over unbuffered channels. It touches no code of this repository and
// allocates nothing per slice, so its speed depends on the host alone —
// and, like the simulator's direct-handoff scheduler, it is dominated by
// goroutine switches, the work the host's slow phases inflate most.
// Running slices between the measured units and dividing by their time
// cancels the host's drift out of every host-time metric.
type refKernel struct {
	ping, pong chan struct{}
	done       chan struct{}
}

func newRefKernel() *refKernel {
	r := &refKernel{ping: make(chan struct{}), pong: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		for range r.ping {
			r.pong <- struct{}{}
		}
	}()
	return r
}

// slice runs one reference slice and returns how long it took.
func (r *refKernel) slice() time.Duration {
	t0 := time.Now()
	for i := 0; i < refRoundTrips; i++ {
		r.ping <- struct{}{}
		<-r.pong
	}
	return time.Since(t0)
}

// slices runs k slices and returns their total time.
func (r *refKernel) slices(k int) time.Duration {
	var total time.Duration
	for i := 0; i < k; i++ {
		total += r.slice()
	}
	return total
}

// stop ends the partner goroutine and waits for it.
func (r *refKernel) stop() {
	close(r.ping)
	<-r.done
}

// refClock accumulates reference time and converts measured host time to
// reference-normalised seconds.
type refClock struct {
	total  time.Duration
	slices int
}

func (c *refClock) add(d time.Duration, k int) {
	c.total += d
	c.slices += k
}

// scale is REF_NOMINAL_S over the mean measured slice time: multiply a
// host duration in seconds by it to get ref-normalised seconds.
func (c *refClock) scale() float64 {
	if c.slices == 0 || c.total <= 0 {
		return 1
	}
	return REF_NOMINAL_S / (c.total.Seconds() / float64(c.slices))
}
