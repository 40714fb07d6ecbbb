package core

import (
	"scc/internal/metrics"
	"scc/internal/rcce"
	"scc/internal/simtime"
)

// Detector is the in-band failure detector: per-peer suspicion state fed
// by the hardened protocol's bounded-wait machinery. A peer becomes
// suspected when a deadline-with-backoff retry budget toward it is
// exhausted (the transport's ErrUnreachable path) and is cleared again
// by any successful handshake with it. Suspicion is a local, fallible
// hint — live cores routinely get suspected when a shared neighbor dies
// and stalls them — so membership decisions never consume it directly;
// the agreement protocol in selfheal.go uses participation instead, and
// suspicions are recorded as a measurement (detection latency).
//
// The detector mutates host-side state only and never advances virtual
// time, so installing one keeps runs bit-identical.
type Detector struct {
	ue        *rcce.UE
	suspected []bool
	susp      int64        // suspicion transitions (cumulative)
	clears    int64        // suspicion clears (cumulative)
	firstEver simtime.Time // first suspicion ever, -1 = never (detection latency anchor)
}

// newDetector builds a detector for the UE and installs itself as the
// UE's peer observer.
func newDetector(ue *rcce.UE) *Detector {
	d := &Detector{suspected: make([]bool, ue.NumUEs()), firstEver: -1}
	d.bind(ue)
	return d
}

// bind re-attaches the detector to a (possibly fresh) UE for the same
// core, keeping accumulated suspicion state. The façade rebuilds UEs per
// Run; detector state must survive that.
func (d *Detector) bind(ue *rcce.UE) {
	d.ue = ue
	ue.SetPeerObserver(d.observe)
}

func (d *Detector) observe(peer int, alive bool) {
	if alive {
		d.Clear(peer)
	} else {
		d.Suspect(peer)
	}
}

// Suspect marks a peer suspected (idempotent); the detector's first
// transition ever records the current virtual time.
func (d *Detector) Suspect(peer int) {
	if peer < 0 || peer >= len(d.suspected) || d.suspected[peer] {
		return
	}
	d.suspected[peer] = true
	if d.firstEver < 0 {
		d.firstEver = d.ue.Core().Now()
	}
	d.susp++
	if reg := d.ue.Core().Metrics(); reg != nil {
		reg.Count(d.ue.ID(), metrics.CtrSuspicions)
	}
}

// Clear removes suspicion from a peer (idempotent).
func (d *Detector) Clear(peer int) {
	if peer < 0 || peer >= len(d.suspected) || !d.suspected[peer] {
		return
	}
	d.suspected[peer] = false
	d.clears++
	if reg := d.ue.Core().Metrics(); reg != nil {
		reg.Count(d.ue.ID(), metrics.CtrSuspicionClears)
	}
}

// FirstSuspicionAt returns the virtual time of the first suspicion this
// detector ever raised (never reset by clears), or -1 when none was.
func (d *Detector) FirstSuspicionAt() simtime.Time { return d.firstEver }

// Suspicions and Clears report the cumulative transition counts.
func (d *Detector) Suspicions() int64 { return d.susp }

// Clears reports how many suspicions were later cleared.
func (d *Detector) Clears() int64 { return d.clears }
