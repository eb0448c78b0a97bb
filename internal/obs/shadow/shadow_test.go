package shadow_test

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/obs/shadow"
	"repro/internal/page"
	"repro/internal/storage"
	"repro/internal/trace"
)

// newStore creates a MemStore with n pages (IDs 1..n) whose spatial
// descriptors differ page to page, so spatial criteria discriminate.
func newStore(tb testing.TB, n int) *storage.MemStore {
	tb.Helper()
	s := storage.NewMemStore()
	for i := 0; i < n; i++ {
		id := s.Allocate()
		p := page.New(id, page.TypeData, 0, 2)
		p.Append(page.Entry{MBR: geom.NewRect(0, 0, float64(i+1), float64(i%7+1)), ObjID: uint64(i)})
		p.Append(page.Entry{MBR: geom.NewRect(float64(i%5), 0, float64(i%5)+2, 3), ObjID: uint64(i) + 1000})
		p.Recompute()
		if err := s.Write(p); err != nil {
			tb.Fatal(err)
		}
	}
	s.ResetStats()
	return s
}

// lcgTrace builds a deterministic reference string mixing a hot set and
// a uniform tail — the same shape the buffer benchmarks use.
func lcgTrace(refs, pages int) *trace.Trace {
	tr := &trace.Trace{Name: "lcg"}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < refs; i++ {
		var id page.ID
		if rng.Intn(4) < 3 {
			id = page.ID(rng.Intn(pages/4) + 1)
		} else {
			id = page.ID(rng.Intn(pages) + 1)
		}
		tr.Refs = append(tr.Refs, trace.Ref{Query: uint64(i) / 8, Page: id})
	}
	return tr
}

// checkingSink feeds every Request event to a shadow cache and fails the
// test on the first reference whose shadow outcome diverges from the
// real pool's — the hit-for-hit equivalence check.
type checkingSink struct {
	obs.NopSink
	t     *testing.T
	cache *shadow.Cache
	seen  int
}

func (cs *checkingSink) Request(e obs.RequestEvent) {
	cs.seen++
	if hit := cs.cache.Ref(e.Page, e.Meta, e.QueryID); hit != e.Hit {
		cs.t.Fatalf("ref %d (page %d): shadow hit=%v, real hit=%v", cs.seen, e.Page, hit, e.Hit)
	}
}

// TestShadowReplayEquivalence is the correctness anchor of the package:
// a shadow cache fed the event stream of a real Engine running the same
// policy at the same capacity must match it hit-for-hit, reference by
// reference, and end with the identical resident set. LRU is the
// contract's required case; the spatial and adaptive policies exercise
// the Meta plumbing (criteria travel on the events, not the pages).
func TestShadowReplayEquivalence(t *testing.T) {
	const (
		numPages = 200
		capacity = 32
		refs     = 20000
	)
	for _, polName := range []string{"LRU", "A", "SLRU 50%", "LRU-2", "ASB"} {
		t.Run(polName, func(t *testing.T) {
			store := newStore(t, numPages)
			factory, err := core.Resolver(polName)
			if err != nil {
				t.Fatal(err)
			}
			m, err := buffer.NewEngine(store, factory(capacity), capacity)
			if err != nil {
				t.Fatal(err)
			}
			cache := shadow.NewCache(polName, factory(capacity), capacity, 0)
			cs := &checkingSink{t: t, cache: cache}
			m.SetSink(cs)

			tr := lcgTrace(refs, numPages)
			for _, ref := range tr.Refs {
				if _, err := m.Get(ref.Page, buffer.AccessContext{QueryID: ref.Query}); err != nil {
					t.Fatal(err)
				}
			}

			st := m.Stats()
			if cache.Hits() != st.Hits || cache.Misses() != st.Misses {
				t.Errorf("shadow %d/%d hits/misses, real %d/%d",
					cache.Hits(), cache.Misses(), st.Hits, st.Misses)
			}
			real := m.ResidentIDs()
			ghost := cache.ResidentIDs()
			sort.Slice(real, func(i, j int) bool { return real[i] < real[j] })
			sort.Slice(ghost, func(i, j int) bool { return ghost[i] < ghost[j] })
			if len(real) != len(ghost) {
				t.Fatalf("resident sets differ in size: real %d, ghost %d", len(real), len(ghost))
			}
			for i := range real {
				if real[i] != ghost[i] {
					t.Fatalf("resident sets diverge at %d: real %d, ghost %d", i, real[i], ghost[i])
				}
			}
		})
	}
}

// TestBankReplayedTrace runs a Bank behind a replayed trace (the offline
// deployment shape) and checks the what-if bookkeeping: the shadow
// matching the real configuration reproduces the real counters exactly,
// so the regret of a defaults bank can never be positive.
func TestBankReplayedTrace(t *testing.T) {
	const (
		numPages = 150
		capacity = 24
		refs     = 12000
	)
	store := newStore(t, numPages)
	specs := shadow.Specs("LRU", capacity, shadow.DefaultPolicies(), shadow.DefaultLadder())
	bank, err := shadow.NewBank(specs, core.Resolver, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 3 what-if policies at 1× plus ladder rungs 0.5×/2×/4× (the 1× rung
	// duplicates LRU@capacity and is dropped).
	if bank.Len() != 6 {
		t.Fatalf("bank has %d shadows, want 6: %+v", bank.Len(), bank.Stats())
	}

	tr := lcgTrace(refs, numPages)
	lru, err := core.Resolver("LRU")
	if err != nil {
		t.Fatal(err)
	}
	e, err := buffer.NewEngine(store, lru(capacity), capacity)
	if err != nil {
		t.Fatal(err)
	}
	e.SetSink(bank)
	st, err := trace.ReplayOn(tr, e)
	if err != nil {
		t.Fatal(err)
	}

	if got := bank.RealRequests(); got != uint64(refs) {
		t.Errorf("bank observed %d requests, want %d", got, refs)
	}
	var mirror *shadow.Cache
	for _, c := range bank.Shadows() {
		if c.PolicyName() == "LRU" && c.Capacity() == capacity {
			mirror = c
		}
	}
	if mirror == nil {
		t.Fatal("no LRU shadow at the real capacity")
	}
	if mirror.Hits() != st.Hits || mirror.Misses() != st.Misses {
		t.Errorf("mirror shadow %d/%d hits/misses, real %d/%d",
			mirror.Hits(), mirror.Misses(), st.Hits, st.Misses)
	}
	if r := bank.Regret(); r > 1e-12 {
		t.Errorf("regret %v > 0 despite a shadow replaying the real configuration", r)
	}
	// The capacity ladder must be monotone: more frames never hit less
	// on the same policy (LRU has no Belady anomaly).
	ratioAt := make(map[int]float64)
	for _, s := range bank.Stats() {
		if s.Policy == "LRU" {
			ratioAt[s.Capacity] = s.HitRatio
		}
	}
	if !(ratioAt[capacity/2] <= ratioAt[capacity] && ratioAt[capacity] <= ratioAt[2*capacity] && ratioAt[2*capacity] <= ratioAt[4*capacity]) {
		t.Errorf("miss-ratio curve not monotone: %v", ratioAt)
	}
}

// TestCacheWindowRatio pins the rolling-window arithmetic: completed
// windows publish their ratio, the partial window falls back to the
// cumulative ratio.
func TestCacheWindowRatio(t *testing.T) {
	lru, err := core.Resolver("LRU")
	if err != nil {
		t.Fatal(err)
	}
	c := shadow.NewCache("LRU", lru(2), 2, 4)
	meta := page.Meta{}
	c.Ref(1, meta, 0) // miss
	c.Ref(1, meta, 0) // hit
	if got := c.WindowHitRatio(); got != 0.5 {
		t.Errorf("partial window ratio %v, want cumulative 0.5", got)
	}
	c.Ref(1, meta, 0) // hit
	c.Ref(1, meta, 0) // hit — completes the window at 3/4
	if got := c.WindowHitRatio(); got != 0.75 {
		t.Errorf("first window ratio %v, want 0.75", got)
	}
	for i := 0; i < 4; i++ {
		c.Ref(1, meta, 0)
	}
	if got := c.WindowHitRatio(); got != 1.0 {
		t.Errorf("second window ratio %v, want 1.0", got)
	}
	if got := c.HitRatio(); got != 7.0/8.0 {
		t.Errorf("cumulative ratio %v, want 7/8", got)
	}
}

// TestBankSkipsTinyAndDuplicateSpecs pins NewBank's spec hygiene.
func TestBankSkipsTinyAndDuplicateSpecs(t *testing.T) {
	bank, err := shadow.NewBank([]Spec{
		{Policy: "LRU", Capacity: 8},
		{Policy: "LRU", Capacity: 8}, // duplicate
		{Policy: "LRU", Capacity: 1}, // below the 2-frame minimum
		{Policy: "ASB", Capacity: 0}, // degenerate ladder rung
	}, core.Resolver, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bank.Len() != 1 {
		t.Errorf("bank has %d shadows, want 1", bank.Len())
	}
	if _, err := shadow.NewBank([]Spec{{Policy: "no-such-policy", Capacity: 8}}, core.Resolver, 0); err == nil {
		t.Error("unknown policy name should fail bank construction")
	}
}

// Spec aliased for brevity in table literals.
type Spec = shadow.Spec
