package buffer

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/page"
)

// recordingSink tallies events for assertions.
type recordingSink struct {
	obs.NopSink
	requests  []obs.RequestEvent
	evictions []obs.EvictionEvent
}

func (r *recordingSink) Request(e obs.RequestEvent)   { r.requests = append(r.requests, e) }
func (r *recordingSink) Eviction(e obs.EvictionEvent) { r.evictions = append(r.evictions, e) }

// sinkAwarePolicy is a testPolicy that also accepts a sink and emits an
// Eviction event per eviction, like the instrumented core policies.
type sinkAwarePolicy struct {
	testPolicy
	obs.Target
}

func (p *sinkAwarePolicy) OnEvict(f *Frame) {
	p.testPolicy.OnEvict(f)
	p.Sink().Eviction(obs.EvictionEvent{Page: f.Meta.ID, Reason: "test", LRURank: -1})
}

func TestManagerEmitsRequestEvents(t *testing.T) {
	s := newStore(t, 4)
	m, err := NewEngine(s, newTestPolicy(), 2)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingSink{}
	m.SetSink(rec)

	get := func(id page.ID, q uint64) {
		t.Helper()
		if _, err := m.Get(id, AccessContext{QueryID: q}); err != nil {
			t.Fatal(err)
		}
	}
	get(1, 7) // miss
	get(1, 8) // hit
	get(2, 8) // miss
	get(3, 9) // miss + eviction

	// Every event — hit or miss — carries the page's Meta, so shadow
	// caches can replay spatial criteria from the stream alone.
	metaOf := func(id page.ID) page.Meta {
		t.Helper()
		p, err := s.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		return p.Meta
	}
	want := []obs.RequestEvent{
		{Page: 1, QueryID: 7, Hit: false, Meta: metaOf(1)},
		{Page: 1, QueryID: 8, Hit: true, Meta: metaOf(1)},
		{Page: 2, QueryID: 8, Hit: false, Meta: metaOf(2)},
		{Page: 3, QueryID: 9, Hit: false, Meta: metaOf(3)},
	}
	if len(rec.requests) != len(want) {
		t.Fatalf("recorded %d request events, want %d", len(rec.requests), len(want))
	}
	for i, e := range rec.requests {
		if e != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, e, want[i])
		}
	}

	// Event stream and Stats must agree.
	st := m.Stats()
	hits := 0
	for _, e := range rec.requests {
		if e.Hit {
			hits++
		}
	}
	if uint64(len(rec.requests)) != st.Requests || uint64(hits) != st.Hits {
		t.Errorf("events (%d req, %d hits) disagree with stats %+v", len(rec.requests), hits, st)
	}
}

func TestSetSinkForwardsToPolicy(t *testing.T) {
	s := newStore(t, 4)
	pol := &sinkAwarePolicy{testPolicy: *newTestPolicy()}
	m, err := NewEngine(s, pol, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingSink{}
	m.SetSink(rec)

	for id := page.ID(1); id <= 3; id++ {
		if _, err := m.Get(id, AccessContext{}); err != nil {
			t.Fatal(err)
		}
	}
	if len(rec.evictions) != 2 {
		t.Fatalf("policy emitted %d evictions through the forwarded sink, want 2", len(rec.evictions))
	}
	if rec.evictions[0].Page != 1 || rec.evictions[1].Page != 2 {
		t.Errorf("eviction pages = %+v", rec.evictions)
	}

	// Detaching falls back to the no-op sink on both layers.
	m.SetSink(nil)
	if _, err := m.Get(4, AccessContext{}); err != nil {
		t.Fatal(err)
	}
	if len(rec.requests) != 3 || len(rec.evictions) != 2 {
		t.Error("detached sink still received events")
	}
}

func TestSyncManagerSetSink(t *testing.T) {
	s := newStore(t, 2)
	m, err := NewEngine(s, newTestPolicy(), 2)
	if err != nil {
		t.Fatal(err)
	}
	sm := Lock(m)
	var counters obs.Counters
	sm.SetSink(&counters)
	if _, err := sm.Get(1, AccessContext{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sm.Get(1, AccessContext{}); err != nil {
		t.Fatal(err)
	}
	snap := counters.Snapshot()
	if snap.Requests != 2 || snap.Hits != 1 || snap.Misses != 1 {
		t.Errorf("counters = %+v", snap)
	}
}

// TestManagerTimesRequestsForLatencySinks asserts the timing points:
// when (and only when) the attached sink implements obs.LatencyRecorder,
// every read and write request publishes a latency sample.
func TestManagerTimesRequestsForLatencySinks(t *testing.T) {
	s := newStore(t, 4)
	m, err := NewEngine(s, newTestPolicy(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var h obs.Histogram
	m.SetSink(&h)

	for _, id := range []page.ID{1, 1, 2} {
		if _, err := m.Get(id, AccessContext{}); err != nil {
			t.Fatal(err)
		}
	}
	p, err := s.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Put(p, AccessContext{}); err != nil {
		t.Fatal(err)
	}
	if got := h.Count(); got != 4 {
		t.Errorf("latency samples = %d, want 4 (3 gets + 1 put)", got)
	}

	// Detaching stops the clock reads.
	m.SetSink(nil)
	if _, err := m.Get(1, AccessContext{}); err != nil {
		t.Fatal(err)
	}
	if got := h.Count(); got != 4 {
		t.Errorf("latency samples after detach = %d, want 4", got)
	}
}

// TestRequestHitPathZeroAllocs is the acceptance gate of the
// observability layer: with the default no-op sink, a buffer hit must
// not allocate at all — attaching the event stream may cost nothing
// when it is not used.
func TestRequestHitPathZeroAllocs(t *testing.T) {
	s := newStore(t, 1)
	m, err := NewEngine(s, newTestPolicy(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := AccessContext{QueryID: 1}
	if _, err := m.Get(1, ctx); err != nil { // warm: admit the page
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := m.Get(1, ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("hit path allocates %.1f objects per request with the no-op sink, want 0", allocs)
	}
}

// BenchmarkManagerGetHit measures the hit path with and without a
// counting sink attached; run with -benchmem to see the 0 allocs/op.
func BenchmarkManagerGetHit(b *testing.B) {
	for _, cfg := range []struct {
		name string
		sink obs.Sink
	}{
		{"nop-sink", nil},
		{"counters-sink", &obs.Counters{}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			s := newStore(b, 1)
			m, err := NewEngine(s, newTestPolicy(), 1)
			if err != nil {
				b.Fatal(err)
			}
			if cfg.sink != nil {
				m.SetSink(cfg.sink)
			}
			ctx := AccessContext{QueryID: 1}
			if _, err := m.Get(1, ctx); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Get(1, ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
