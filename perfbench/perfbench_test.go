package main

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/page"
	"repro/internal/storage"
)

// testObjects is the small database scale of the tests.
const testObjects = 6_000

func testOptions(t *testing.T) options {
	return options{seed: 3, objects: testObjects, dir: t.TempDir(), updateOps: 4_000}
}

// runFixed sets a workload up and runs ops operations per client.
func runFixed(t *testing.T, w workload, o options, ops uint64) (*result, *instance) {
	t.Helper()
	inst, err := setup(w, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := inst.teardown(); err != nil {
			t.Error(err)
		}
	})
	r, err := measureAndCheck(inst, time.Hour, ops)
	if err != nil {
		t.Fatal(err)
	}
	return r, inst
}

func statsDelta(p phase) (buffer.Stats, storage.Stats) {
	return statsSince(p.before.stats, p.after.stats), storage.Stats{
		Reads:  p.after.store.Reads - p.before.store.Reads,
		Writes: p.after.store.Writes - p.before.store.Writes,
	}
}

// TestWrapperTransparency runs every workload at one client untraced
// and traced: the timing wrappers must not change what the pool and
// the store do.
func TestWrapperTransparency(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if !w.updates {
				checkTransparent(t, w, true)
				return
			}
			// Under the async layer's background write-back, three
			// counts of the update mix depend on timing even at one
			// client: a miss on a page whose queued write has not landed
			// is served from the queue (Coalesced instead of a store
			// read) and re-admitted dirty (a later WriteBack), and
			// rewrites of a pending page coalesce into fewer store
			// writes. So the mix runs on the workload's async pool with
			// the timing-independent counts compared, and on a locked
			// pool with all of them.
			checkTransparent(t, w, false)
			w.composition = "locked"
			t.Run("locked", func(t *testing.T) { checkTransparent(t, w, true) })
		})
	}
}

func checkTransparent(t *testing.T, w workload, exact bool) {
	o := testOptions(t)
	o.clients = 1
	plain, _ := runFixed(t, w, o, 3_000)
	o.traced = true
	traced, _ := runFixed(t, w, o, 3_000)
	if !plain.Correct || !traced.Correct {
		t.Fatalf("correct: untraced %v, traced %v", plain.Correct, traced.Correct)
	}
	ps, pst := statsDelta(plain.phase)
	ts, tst := statsDelta(traced.phase)
	if ps.Requests == 0 || (w.updates && (ps.Puts == 0 || pst.Writes == 0)) {
		t.Fatalf("too little measured: pool %+v store %+v", ps, pst)
	}
	same := ps == ts && pst == tst
	if !exact {
		timingFree := func(s buffer.Stats) buffer.Stats { s.WriteBacks, s.Coalesced = 0, 0; return s }
		same = timingFree(ps) == timingFree(ts) && pst.Reads+ps.Coalesced == tst.Reads+ts.Coalesced
	}
	if !same {
		t.Fatalf("untraced pool %+v store %+v\ntraced   pool %+v store %+v", ps, pst, ts, tst)
	}
}

// countingPolicy records the callbacks it receives. It never has a
// victim, so the test pools are sized not to evict.
type countingPolicy struct {
	admits, hits, updates int
}

func (p *countingPolicy) Name() string                                         { return "counting" }
func (p *countingPolicy) OnAdmit(*buffer.Frame, uint64, buffer.AccessContext)  { p.admits++ }
func (p *countingPolicy) OnHit(*buffer.Frame, uint64, buffer.AccessContext)    { p.hits++ }
func (p *countingPolicy) Victim(buffer.AccessContext) *buffer.Frame            { return nil }
func (p *countingPolicy) OnEvict(*buffer.Frame)                                {}
func (p *countingPolicy) Reset()                                               {}
func (p *updatingPolicy) OnUpdate(*buffer.Frame, uint64, buffer.AccessContext) { p.updates++ }

// updatingPolicy is a countingPolicy that implements buffer.Updater.
type updatingPolicy struct{ countingPolicy }

// TestPolicyWrapperUpdater checks that a Put on a resident page reaches
// the wrapped policy exactly as it reaches the bare policy: OnUpdate
// when the policy has it, OnHit otherwise.
func TestPolicyWrapperUpdater(t *testing.T) {
	for _, tc := range []struct {
		name string
		make func() (buffer.Policy, *countingPolicy)
	}{
		{"with-OnUpdate", func() (buffer.Policy, *countingPolicy) { p := &updatingPolicy{}; return p, &p.countingPolicy }},
		{"without-OnUpdate", func() (buffer.Policy, *countingPolicy) { p := &countingPolicy{}; return p, p }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got [2]countingPolicy
			for i, traced := range []bool{false, true} {
				pol, counts := tc.make()
				factory := func(int) buffer.Policy { return pol }
				var clocks []*policyClock
				if traced {
					factory = traceFactory(factory, &clocks)
				}
				store := storage.NewMemStore()
				p := page.New(store.Allocate(), page.TypeData, 0, 4)
				if err := store.Write(p); err != nil {
					t.Fatal(err)
				}
				pool, err := buffer.Composition{Layout: buffer.LayoutBare}.Build(store, factory, 4)
				if err != nil {
					t.Fatal(err)
				}
				ctx := buffer.AccessContext{QueryID: 1}
				if _, err := pool.Get(p.ID, ctx); err != nil {
					t.Fatal(err)
				}
				if err := pool.Put(p.Clone(), ctx); err != nil {
					t.Fatal(err)
				}
				got[i] = *counts
				if traced && clocks[0].calls != 2 {
					t.Errorf("wrapper timed %d callbacks, want 2", clocks[0].calls)
				}
			}
			if got[0] != got[1] {
				t.Fatalf("bare policy saw %+v, wrapped policy %+v", got[0], got[1])
			}
			if got[0].admits != 1 || got[0].hits+got[0].updates != 1 {
				t.Fatalf("policy saw %+v, want one admit and one hit or update", got[0])
			}
		})
	}
}

var errInjected = errors.New("injected read fault")

// flakyStore fails every n-th read.
type flakyStore struct {
	storage.Store
	n     uint64
	reads atomic.Uint64
}

func (s *flakyStore) Read(id page.ID) (*page.Page, error) {
	if s.reads.Add(1)%s.n == 0 {
		return nil, errInjected
	}
	return s.Store.Read(id)
}

// TestFailureAccounting injects read faults under the pool: the run
// must finish, count the failed operations, and report them.
func TestFailureAccounting(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := testOptions(t)
			o.wrapStore = func(s storage.Store) storage.Store { return &flakyStore{Store: s, n: 50} }
			r, _ := runFixed(t, w, o, 2_000)
			if r.Correct || r.Failed == 0 {
				t.Fatalf("correct %v with %d of %d failed, want failures", r.Correct, r.Failed, r.Attempted)
			}
			if r.Failed == r.Attempted {
				t.Fatalf("all %d operations failed; a 1-in-50 read fault should spare most", r.Attempted)
			}
			if share := r.failedShare(); share <= 0 || share >= 1 {
				t.Fatalf("failed share %v", share)
			}
		})
	}
}

// layerGapTolerance bounds the share of client time that the layer
// self times leave unaccounted: the benchmark's own bookkeeping between
// operations, and any child time measured outside its parent's call.
const layerGapTolerance = 0.05

// TestLayerBudget checks on a traced run of every workload that the
// layers' self times add up to the clients' wall time.
func TestLayerBudget(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := testOptions(t)
			r, err := runTraced(w, o, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct {
				t.Fatalf("%d of %d operations failed", r.Failed, r.Attempted)
			}
			for _, m := range []string{"rtree.self_us_per_op", "buffer.get_ns", "buffer.self_ns_per_call", "core.policy_ns_per_call", "storage.read_ns"} {
				if v := r.Metrics[m].Value; v <= 0 {
					t.Errorf("%s = %v, want > 0", m, v)
				}
			}
			if gap := r.Metrics["bench.layer_gap_share"].Value; gap > layerGapTolerance {
				t.Fatalf("layer gap %.4f of wall time exceeds %.2f", gap, layerGapTolerance)
			}
		})
	}
}
