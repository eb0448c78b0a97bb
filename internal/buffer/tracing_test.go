package buffer

import (
	"sync"
	"testing"

	"repro/internal/obs/tracing"
	"repro/internal/page"
)

// TestManagerTracedRequest checks that a sampled Get produces a root span
// with the request payload and, on a miss, a store.Read child span from
// the traced store wrapper.
func TestManagerTracedRequest(t *testing.T) {
	s := newStore(t, 4)
	m, err := NewEngine(s, newTestPolicy(), 2)
	if err != nil {
		t.Fatal(err)
	}
	tr := tracing.NewTracer(1, 1, 16)
	m.SetTracer(tr)

	ctx := AccessContext{QueryID: 9}
	if _, err := m.Get(1, ctx); err != nil { // miss
		t.Fatal(err)
	}
	if _, err := m.Get(1, ctx); err != nil { // hit
		t.Fatal(err)
	}

	traces := tr.Traces(0)
	if len(traces) != 2 {
		t.Fatalf("got %d traces, want 2", len(traces))
	}
	miss, hit := traces[0], traces[1]
	if len(miss) != 2 {
		t.Fatalf("miss trace has %d spans, want root+store.Read: %+v", len(miss), miss)
	}
	root := miss[0]
	if root.Kind != tracing.KindGet || root.Hit || root.Page != 1 || root.QueryID != 9 {
		t.Fatalf("bad miss root: %+v", root)
	}
	rd := miss[1]
	if rd.Kind != tracing.KindStoreRead || rd.Parent != 0 || rd.Page != 1 || rd.Bytes <= 0 {
		t.Fatalf("bad store.Read child: %+v", rd)
	}
	if len(hit) != 1 || !hit[0].Hit {
		t.Fatalf("bad hit trace: %+v", hit)
	}
}

// TestManagerTracedWriteBack checks that dirty evictions and Flush record
// store.Write child spans, and that Flush is traced unconditionally.
func TestManagerTracedWriteBack(t *testing.T) {
	s := newStore(t, 4)
	m, err := NewEngine(s, newTestPolicy(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := tracing.NewTracer(1, 1, 16)
	m.SetTracer(tr)

	ctx := AccessContext{}
	if _, err := m.Get(1, ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.MarkDirty(1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(2, ctx); err != nil { // evicts dirty page 1
		t.Fatal(err)
	}
	if err := m.MarkDirty(2); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}

	traces := tr.Traces(0)
	if len(traces) != 5 {
		t.Fatalf("got %d traces, want 5 (2 gets + 2 markdirties + flush)", len(traces))
	}
	md := traces[1]
	if md[0].Kind != tracing.KindMarkDirty || !md[0].Hit || md[0].Page != 1 {
		t.Fatalf("bad markdirty root: %+v", md[0])
	}
	evict := traces[2]
	var wrote bool
	for _, sp := range evict {
		if sp.Kind == tracing.KindStoreWrite && sp.Page == 1 {
			wrote = true
		}
	}
	if !wrote {
		t.Fatalf("eviction trace lacks write-back span: %+v", evict)
	}
	flush := traces[4]
	if flush[0].Kind != tracing.KindFlush {
		t.Fatalf("bad flush root: %+v", flush[0])
	}
	if len(flush) != 2 || flush[1].Kind != tracing.KindStoreWrite || flush[1].Page != 2 {
		t.Fatalf("bad flush children: %+v", flush)
	}
}

// TestManagerDetachTracer checks that SetTracer(nil) restores the
// untraced store and stops recording.
func TestManagerDetachTracer(t *testing.T) {
	s := newStore(t, 4)
	m, err := NewEngine(s, newTestPolicy(), 2)
	if err != nil {
		t.Fatal(err)
	}
	tr := tracing.NewTracer(1, 1, 16)
	m.SetTracer(tr)
	m.SetTracer(nil)
	if _, err := m.Get(1, AccessContext{}); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Traces(0)); got != 0 {
		t.Fatalf("detached tracer recorded %d traces", got)
	}
	if m.Tracer() != nil {
		t.Fatal("Tracer() non-nil after detach")
	}
}

// TestTracingDisabledHitAllocFree pins the zero-cost contract: with no
// tracer attached the hit path allocates nothing, and with a tracer
// attached an unsampled hit allocates nothing either.
func TestTracingDisabledHitAllocFree(t *testing.T) {
	s := newStore(t, 2)
	m, err := NewEngine(s, newTestPolicy(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := AccessContext{}
	if _, err := m.Get(1, ctx); err != nil {
		t.Fatal(err)
	}

	if allocs := testing.AllocsPerRun(500, func() {
		if _, err := m.Get(1, ctx); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("untraced hit allocates %.1f/op, want 0", allocs)
	}

	// Huge sampling interval: every request goes down the unsampled path.
	m.SetTracer(tracing.NewTracer(1<<40, 1, 8))
	if allocs := testing.AllocsPerRun(500, func() {
		if _, err := m.Get(1, ctx); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("unsampled hit allocates %.1f/op, want 0", allocs)
	}
}

// TestRouterTracing checks, for the sharded and the async stack, that
// every shard stamps the index its pages route to on its spans and
// records into its own ring, and that lock waits land in root spans.
func TestRouterTracing(t *testing.T) {
	const shards = 4
	for _, tc := range []struct {
		name  string
		build func(r *Router) Pool
	}{
		{"sharded", func(r *Router) Pool { return r }},
		{"async", func(r *Router) Pool { return Async(r, AsyncConfig{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newStore(t, 64)
			r, err := NewRouter(s, func(capacity int) Policy { return newTestPolicy() }, 32, shards)
			if err != nil {
				t.Fatal(err)
			}
			pool := tc.build(r)
			if cl, ok := pool.(interface{ Close() error }); ok {
				defer cl.Close()
			}
			tr := tracing.NewTracer(1, r.Shards(), 64)
			pool.(interface{ SetTracer(*tracing.Tracer) }).SetTracer(tr)
			c := tracing.NewContention(r.Shards())
			r.EnableContention(c)

			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						id := page.ID(1 + (g*50+i)%64)
						if _, err := pool.Get(id, AccessContext{QueryID: uint64(g)}); err != nil {
							t.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()

			seen := map[int32]bool{}
			for _, trc := range tr.Traces(0) {
				root := trc[0]
				if want := int32(r.shardIndex(root.Page)); root.Shard != want {
					t.Fatalf("root span of page %d on shard %d, want %d", root.Page, root.Shard, want)
				}
				seen[root.Shard] = true
				for _, sp := range trc {
					if sp.Shard != root.Shard {
						t.Fatalf("span shard %d != root shard %d", sp.Shard, root.Shard)
					}
				}
			}
			if len(seen) < 2 {
				t.Fatalf("only %d shards recorded traces; want several", len(seen))
			}
			var acq uint64
			for i := 0; i < c.Shards(); i++ {
				acq += c.Acquisitions(i)
			}
			if acq != 200 {
				t.Fatalf("profiler counted %d acquisitions, want 200", acq)
			}
		})
	}
}

// TestSyncManagerTracing checks the single-mutex wrapper: spans carry
// shard 0 and the contention profiler counts every request acquisition.
func TestSyncManagerTracing(t *testing.T) {
	s := newStore(t, 8)
	m, err := NewEngine(s, newTestPolicy(), 4)
	if err != nil {
		t.Fatal(err)
	}
	sm := Lock(m)
	tr := tracing.NewTracer(1, 1, 32)
	sm.SetTracer(tr)
	c := tracing.NewContention(1)
	sm.EnableContention(c)

	for i := 0; i < 10; i++ {
		if _, err := sm.Get(page.ID(1+i%8), AccessContext{}); err != nil {
			t.Fatal(err)
		}
	}
	traces := tr.Traces(0)
	if len(traces) != 10 {
		t.Fatalf("got %d traces, want 10", len(traces))
	}
	for _, trc := range traces {
		if trc[0].Shard != 0 {
			t.Fatalf("locked engine span on shard %d", trc[0].Shard)
		}
	}
	if c.Acquisitions(0) != 10 {
		t.Fatalf("profiler counted %d acquisitions, want 10", c.Acquisitions(0))
	}
	sm.SetTracer(nil)
	sm.EnableContention(nil)
	if _, err := sm.Get(1, AccessContext{}); err != nil {
		t.Fatal(err)
	}
	if c.Acquisitions(0) != 10 {
		t.Fatal("profiler still counting after detach")
	}
}
