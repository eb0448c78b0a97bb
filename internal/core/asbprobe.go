package core

import (
	"repro/internal/obs"
	"repro/internal/page"
)

// ASBProbe is a diagnostic ASB variant with a FIXED candidate size that
// records the raw §4.2 adaptation signals instead of acting on them. It
// is used by calibration tooling to inspect the signal distribution
// under a controlled candidate size.
//
// The probe is built on the observability layer rather than as a policy
// fork: the underlying ASB runs with FreezeCand (signals computed and
// emitted, candidate size pinned) and the probe subscribes to its
// OverflowPromotion events.
type ASBProbe struct {
	*ASB
	rec *signalRecorder
}

// signalRecorder tallies the adaptation signals from the event stream.
type signalRecorder struct {
	obs.NopSink
	up, down, eq int
	// diffs records betterLRU − betterSpatial per overflow hit.
	diffs []int
}

// OverflowPromotion implements obs.Sink.
func (r *signalRecorder) OverflowPromotion(e obs.OverflowPromotionEvent) {
	switch {
	case e.BetterSpatial > e.BetterLRU:
		r.down++
	case e.BetterLRU > e.BetterSpatial:
		r.up++
	default:
		r.eq++
	}
	r.diffs = append(r.diffs, e.BetterLRU-e.BetterSpatial)
}

// NewASBProbe builds a probe with the candidate set pinned to candFrac of
// the main part.
func NewASBProbe(capacity int, crit page.Criterion, candFrac float64) *ASBProbe {
	opts := DefaultASBOptions()
	opts.Criterion = crit
	opts.InitialCandFrac = candFrac
	opts.FreezeCand = true
	p := &ASBProbe{ASB: NewASB(capacity, opts), rec: &signalRecorder{}}
	p.ASB.SetSink(p.rec)
	return p
}

// SetSink implements obs.SinkSetter: an externally attached sink (e.g.
// via buffer.Engine.SetSink) observes the ASB's events alongside the
// probe's own recorder.
func (p *ASBProbe) SetSink(s obs.Sink) {
	p.ASB.SetSink(obs.Tee(p.rec, s))
}

// Signals returns the recorded (grow, shrink, equal) event counts.
func (p *ASBProbe) Signals() (up, down, eq int) { return p.rec.up, p.rec.down, p.rec.eq }

// Diffs returns betterLRU − betterSpatial per overflow hit, in event
// order.
func (p *ASBProbe) Diffs() []int { return p.rec.diffs }
