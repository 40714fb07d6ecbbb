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
// the agreement protocol in selfheal.go uses participation instead and
// suspicions only steer coordinator choice and wait budgets.
//
// The detector mutates host-side state only and never advances virtual
// time, so installing one keeps runs bit-identical.
type Detector struct {
	ue        *rcce.UE
	suspected []bool
	firstAt   []simtime.Time // virtual time of first (current) suspicion, -1 = none
	susp      int64          // suspicion transitions (cumulative)
	clears    int64          // suspicion clears (cumulative)
	firstEver simtime.Time   // first suspicion ever, -1 = never (detection latency anchor)
}

// newDetector builds a detector for the UE and installs itself as the
// UE's peer observer.
func newDetector(ue *rcce.UE) *Detector {
	d := &Detector{
		suspected: make([]bool, ue.NumUEs()),
		firstAt:   make([]simtime.Time, ue.NumUEs()),
	}
	for i := range d.firstAt {
		d.firstAt[i] = -1
	}
	d.firstEver = -1
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

// Suspect marks a peer suspected (idempotent); the first transition
// records the current virtual time.
func (d *Detector) Suspect(peer int) {
	if peer < 0 || peer >= len(d.suspected) || d.suspected[peer] {
		return
	}
	d.suspected[peer] = true
	d.firstAt[peer] = d.ue.Core().Now()
	if d.firstEver < 0 {
		d.firstEver = d.firstAt[peer]
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
	d.firstAt[peer] = -1
	d.clears++
	if reg := d.ue.Core().Metrics(); reg != nil {
		reg.Count(d.ue.ID(), metrics.CtrSuspicionClears)
	}
}

// Suspected reports whether the peer is currently suspected.
func (d *Detector) Suspected(peer int) bool {
	return peer >= 0 && peer < len(d.suspected) && d.suspected[peer]
}

// FirstSuspectedAt returns the virtual time the current suspicion of the
// peer began, or -1 when the peer is not suspected.
func (d *Detector) FirstSuspectedAt(peer int) simtime.Time {
	if !d.Suspected(peer) {
		return -1
	}
	return d.firstAt[peer]
}

// FirstSuspicionAt returns the virtual time of the first suspicion this
// detector ever raised (never reset by clears), or -1 when none was.
func (d *Detector) FirstSuspicionAt() simtime.Time { return d.firstEver }

// Suspicions and Clears report the cumulative transition counts.
func (d *Detector) Suspicions() int64 { return d.susp }

// Clears reports how many suspicions were later cleared.
func (d *Detector) Clears() int64 { return d.clears }

// fillBitmap writes the suspicion set as a little-endian bitmap (bit
// i%8 of byte i/8 set = core i suspected) into buf.
func (d *Detector) fillBitmap(buf []byte) {
	clear(buf)
	for i, s := range d.suspected {
		if s {
			buf[i/8] |= 1 << (i % 8)
		}
	}
}
