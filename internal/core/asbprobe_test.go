package core_test

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/page"
)

// driveProbe admits frames through an ASBProbe exactly as driveASB does
// for a plain ASB.
func driveProbe(capacity int, areas []float64, candFrac float64) (*core.ASBProbe, []*buffer.Frame) {
	p := core.NewASBProbe(capacity, page.CritA, candFrac)
	frames := make([]*buffer.Frame, len(areas)+1)
	for i, a := range areas {
		f := asbFrame(page.ID(i+1), a, uint64(i+1))
		frames[i+1] = f
		p.OnAdmit(f, uint64(i+1), buffer.AccessContext{QueryID: uint64(i + 1)})
	}
	return p, frames
}

func TestASBProbeRecordsSignalsWithoutAdapting(t *testing.T) {
	areas := []float64{5, 3, 10, 10, 10, 10, 10, 10, 10, 10}
	p, frames := driveProbe(10, areas, 0.25)
	pinned := p.CandidateSize()

	// Overflow hit: pages 1 (area 5) and 2 (area 3) were demoted earlier.
	// Hitting page 1 computes the §4.2 signal against the other overflow
	// pages; the probe must record exactly one event and keep the
	// candidate size pinned regardless of the signal's direction.
	p.OnHit(frames[1], 11, buffer.AccessContext{QueryID: 11})
	if p.CandidateSize() != pinned {
		t.Errorf("probe candidate moved: %d → %d", pinned, p.CandidateSize())
	}
	up, down, eq := p.Signals()
	if up+down+eq != 1 {
		t.Errorf("signals = (%d,%d,%d), want exactly one event", up, down, eq)
	}
	if diffs := p.Diffs(); len(diffs) != 1 {
		t.Errorf("diffs = %v, want one entry", diffs)
	}

	// Drive a second overflow hit after re-demoting the page.
	p.OnEvict(frames[1])
	p.OnAdmit(frames[1], 12, buffer.AccessContext{QueryID: 12})
	p.OnHit(frames[2], 13, buffer.AccessContext{QueryID: 13})
	up, down, eq = p.Signals()
	if up+down+eq != 2 {
		t.Errorf("signals = (%d,%d,%d) after second hit, want 2 events", up, down, eq)
	}
	if p.CandidateSize() != pinned {
		t.Errorf("probe candidate moved after second hit: %d", p.CandidateSize())
	}
}

func TestASBProbeExternalSinkObservesEvents(t *testing.T) {
	// Attaching an external sink (as buffer.Engine.SetSink would) must
	// not disconnect the probe's own recorder.
	areas := []float64{5, 3, 10, 10, 10, 10, 10, 10, 10, 10}
	p, frames := driveProbe(10, areas, 0.25)
	var counters obs.Counters
	p.SetSink(&counters)
	p.OnHit(frames[1], 11, buffer.AccessContext{QueryID: 11})
	if got := counters.Snapshot().Promotions; got != 1 {
		t.Errorf("external sink promotions = %d, want 1", got)
	}
	up, down, eq := p.Signals()
	if up+down+eq != 1 {
		t.Errorf("probe recorder lost the event: (%d,%d,%d)", up, down, eq)
	}
}
