package live_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/page"
	"repro/internal/storage"
)

// newStore creates a MemStore with n single-entry pages (IDs 1..n).
func newStore(t testing.TB, n int) *storage.MemStore {
	t.Helper()
	s := storage.NewMemStore()
	for i := 0; i < n; i++ {
		id := s.Allocate()
		p := page.New(id, page.TypeData, 0, 1)
		p.Append(page.Entry{MBR: geom.NewRect(0, 0, float64(i+1), 1), ObjID: uint64(i)})
		p.Recompute()
		if err := s.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	s.ResetStats()
	return s
}

func TestAsyncSinkDeliversInOrder(t *testing.T) {
	var down obs.Counters
	s := live.NewAsyncSink(&down, 128, nil)
	for i := 0; i < 50; i++ {
		s.Request(obs.RequestEvent{Page: page.ID(i + 1), Hit: i%2 == 0})
	}
	s.Eviction(obs.EvictionEvent{Page: 1, Reason: obs.ReasonLRU})
	s.Adapt(obs.AdaptEvent{OldC: 3, NewC: 4})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snap := down.Snapshot()
	if snap.Requests != 50 || snap.Hits != 25 || snap.Evictions != 1 || snap.Adaptations != 1 {
		t.Errorf("downstream snapshot = %+v", snap)
	}
	if s.Dropped() != 0 {
		t.Errorf("dropped = %d, want 0 (ring larger than burst)", s.Dropped())
	}
	if s.Delivered() != 52 {
		t.Errorf("delivered = %d, want 52", s.Delivered())
	}
	// Close is idempotent and events after Close are counted as drops.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s.Request(obs.RequestEvent{Page: 99})
	if s.Dropped() != 1 || s.DroppedRequests() != 1 {
		t.Errorf("post-close drops = %d/%d, want 1/1", s.Dropped(), s.DroppedRequests())
	}
}

// slowSink stalls on every event, forcing ring saturation.
type slowSink struct {
	obs.NopSink
	delay time.Duration
	seen  int
}

func (s *slowSink) Request(obs.RequestEvent) {
	time.Sleep(s.delay)
	s.seen++
}

func TestAsyncSinkDropAccountingUnderSaturation(t *testing.T) {
	down := &slowSink{delay: time.Millisecond}
	var hooked uint64
	var hookMu sync.Mutex
	s := live.NewAsyncSink(down, 4, func(n uint64) {
		hookMu.Lock()
		hooked += n
		hookMu.Unlock()
	})
	const emitted = 400
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < emitted/4; i++ {
				s.Request(obs.RequestEvent{Page: 1})
			}
		}()
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Dropped() == 0 {
		t.Error("expected drops with a 4-slot ring and a 1ms/event consumer")
	}
	if got := s.Delivered() + s.Dropped(); got != emitted {
		t.Errorf("delivered %d + dropped %d = %d, want %d (exact accounting)",
			s.Delivered(), s.Dropped(), got, emitted)
	}
	if uint64(down.seen) != s.Delivered() {
		t.Errorf("downstream saw %d, sink says delivered %d", down.seen, s.Delivered())
	}
	hookMu.Lock()
	defer hookMu.Unlock()
	if hooked != s.Dropped() {
		t.Errorf("drop hook counted %d, sink counted %d", hooked, s.Dropped())
	}
}

// TestSyncManagerWithAsyncRingSink is the satellite race test: several
// goroutines drive one locked engine with the ring sink attached (run
// under -race in CI). With a ring at least as large as the event volume
// there must be no drops and the downstream counters must agree exactly
// with the manager's stats.
func TestSyncManagerWithAsyncRingSink(t *testing.T) {
	const pages, frames = 64, 16
	const goroutines, perG = 8, 2000

	store := newStore(t, pages)
	pol := core.NewASB(frames, core.DefaultASBOptions())
	m, err := buffer.NewEngine(store, pol, frames)
	if err != nil {
		t.Fatal(err)
	}
	sm := buffer.Lock(m)

	var down obs.Counters
	// Capacity comfortably above the worst-case event volume (each
	// request can emit a request + eviction + promotion + adapt event).
	s := live.NewAsyncSink(&down, 4*goroutines*perG, nil)
	var direct obs.Counters // exact, synchronous control
	sm.SetSink(obs.Tee(&direct, s))

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id := page.ID((g*7+i*13)%pages + 1)
				if _, err := sm.Get(id, buffer.AccessContext{QueryID: uint64(g)<<32 | uint64(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	sm.SetSink(nil) // detach producers before Close, per the contract
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if s.Dropped() != 0 {
		t.Errorf("dropped = %d, want 0 at this rate and capacity", s.Dropped())
	}
	stats := sm.Stats()
	snap := down.Snapshot()
	if snap.Requests != stats.Requests || snap.Hits != stats.Hits || snap.Misses != stats.Misses {
		t.Errorf("async counters %+v disagree with stats %+v", snap, stats)
	}
	if snap != direct.Snapshot() {
		t.Errorf("async snapshot %+v != synchronous control %+v", snap, direct.Snapshot())
	}
	if snap.Evictions != stats.Evictions {
		t.Errorf("evictions: async %d, stats %d", snap.Evictions, stats.Evictions)
	}
}
