package buffer

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/page"
)

func TestSyncManagerConcurrentGets(t *testing.T) {
	s := newStore(t, 64)
	m, err := NewEngine(s, newTestPolicy(), 16)
	if err != nil {
		t.Fatal(err)
	}
	sm := Lock(m)

	const goroutines = 8
	const perG = 800
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				id := page.ID(rng.Intn(64) + 1)
				if _, err := sm.Get(id, AccessContext{QueryID: uint64(seed)}); err != nil {
					errs <- err
					return
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := sm.Stats()
	if st.Requests != goroutines*perG {
		t.Errorf("requests = %d, want %d", st.Requests, goroutines*perG)
	}
	if st.Hits+st.Misses != st.Requests {
		t.Errorf("inconsistent stats: %+v", st)
	}
	if sm.Len() > 16 {
		t.Errorf("capacity exceeded: %d", sm.Len())
	}
	if s.Stats().Reads != st.Misses {
		t.Errorf("physical reads %d != misses %d", s.Stats().Reads, st.Misses)
	}
}

func TestSyncManagerMixedOps(t *testing.T) {
	s := newStore(t, 32)
	m, err := NewEngine(s, newTestPolicy(), 8)
	if err != nil {
		t.Fatal(err)
	}
	sm := Lock(m)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				id := page.ID(rng.Intn(32) + 1)
				switch rng.Intn(4) {
				case 0:
					p := page.New(id, page.TypeData, 0, 0)
					p.Recompute()
					if err := sm.Put(p, AccessContext{}); err != nil {
						errs <- err
						return
					}
				case 1:
					if _, err := sm.Fix(id, AccessContext{}); err != nil {
						errs <- err
						return
					}
					if err := sm.Unfix(id); err != nil {
						errs <- err
						return
					}
				default:
					if _, err := sm.Get(id, AccessContext{}); err != nil {
						errs <- err
						return
					}
				}
			}
		}(int64(g + 11))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := sm.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := sm.Clear(); err != nil {
		t.Fatal(err)
	}
	if sm.Len() != 0 {
		t.Errorf("len after clear = %d", sm.Len())
	}
}
