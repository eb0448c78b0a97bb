package shadow_test

import (
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/obs/live"
	"repro/internal/obs/shadow"
	"repro/internal/page"
)

// The workload mirrors buffer's pool benchmarks: a hot set that mostly
// fits and a cold tail that keeps eviction (and thus event) traffic up.
const (
	benchNumPages = 512
	benchCapacity = 128
	benchHotPages = 64
	benchWorkers  = 8
	benchShards   = 4
)

func benchPageID(rng *rand.Rand) page.ID {
	if rng.Intn(4) < 3 {
		return page.ID(rng.Intn(benchHotPages) + 1)
	}
	return page.ID(rng.Intn(benchNumPages) + 1)
}

func drivePool(tb testing.TB, pool buffer.Pool, workers int, ops int64) {
	var next atomic.Int64
	var wg sync.WaitGroup
	var failed atomic.Bool
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for {
				i := next.Add(1)
				if i > ops {
					return
				}
				if _, err := pool.Get(benchPageID(rng), buffer.AccessContext{QueryID: uint64(i) / 4}); err != nil {
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if failed.Load() {
		tb.Fatal("pool request failed during benchmark")
	}
}

// benchPool builds the serving configuration bufserve deploys: the
// async composition over a MemStore. withBank attaches a default shadow
// bank behind an AsyncSink — the exact production composition — so the
// benchmark's on/off delta is the shadow profiler's request-path cost.
func benchPool(tb testing.TB, withBank bool) (pool *buffer.AsyncPool, cleanup func()) {
	tb.Helper()
	store := newStore(tb, benchNumPages)
	lru, err := core.Resolver("LRU")
	if err != nil {
		tb.Fatal(err)
	}
	router, err := buffer.NewRouter(store, lru, benchCapacity, benchShards)
	if err != nil {
		tb.Fatal(err)
	}
	pool = buffer.Async(router, buffer.AsyncConfig{})
	if !withBank {
		return pool, func() { pool.Close() }
	}
	specs := shadow.Specs("LRU", benchCapacity, shadow.DefaultPolicies(), shadow.DefaultLadder())
	bank, err := shadow.NewBank(specs, core.Resolver, 0)
	if err != nil {
		tb.Fatal(err)
	}
	async := live.NewAsyncSink(bank, live.DefaultRingCapacity, nil)
	pool.SetSink(async)
	return pool, func() {
		pool.SetSink(nil)
		pool.Close()
		async.Close()
	}
}

// BenchmarkPoolShadow measures async sharded serving with the shadow
// bank off versus on (the full default bank — 6 ghost caches — behind
// an AsyncSink). The acceptance bar for the profiler is that "on" costs
// the request path only the ring send.
func BenchmarkPoolShadow(b *testing.B) {
	for _, tc := range []struct {
		name     string
		withBank bool
	}{
		{"off", false},
		{"on", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			pool, cleanup := benchPool(b, tc.withBank)
			defer cleanup()
			b.ReportAllocs()
			drivePool(b, pool, benchWorkers, int64(b.N))
		})
	}
}

// TestShadowDisabledHitPathZeroAllocs pins the disabled-profiler cost
// from outside the buffer package: with no sink attached, a buffer hit
// allocates nothing — shadow support (the Meta field on RequestEvent)
// must not have put the event on the heap.
func TestShadowDisabledHitPathZeroAllocs(t *testing.T) {
	store := newStore(t, 8)
	lru, err := core.Resolver("LRU")
	if err != nil {
		t.Fatal(err)
	}
	m, err := buffer.NewEngine(store, lru(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := buffer.AccessContext{QueryID: 1}
	if _, err := m.Get(1, ctx); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := m.Get(1, ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("hit path with shadows disabled allocates %.1f objects per request, want 0", allocs)
	}
}

// shadowBenchResult is one row of BENCH_shadow.json.
type shadowBenchResult struct {
	Bank      string  `json:"bank"`
	Shadows   int     `json:"shadows"`
	Workers   int     `json:"workers"`
	Ops       int64   `json:"ops"`
	NsPerOp   float64 `json:"ns_per_op"`
	OpsPerSec float64 `json:"ops_per_sec"`
}

// TestWriteBenchShadowJSON self-times serving with the shadow bank off
// and on and writes the comparison to the path in BENCH_SHADOW_JSON —
// the artifact CI archives next to BENCH_pool.json and
// BENCH_missio.json. A no-op without the variable.
func TestWriteBenchShadowJSON(t *testing.T) {
	path := os.Getenv("BENCH_SHADOW_JSON")
	if path == "" {
		t.Skip("BENCH_SHADOW_JSON not set")
	}
	const ops = 300_000
	var results []shadowBenchResult
	for _, tc := range []struct {
		name     string
		withBank bool
		shadows  int
	}{
		{"off", false, 0},
		{"on", true, 6},
	} {
		pool, cleanup := benchPool(t, tc.withBank)
		// One untimed pass warms the resident sets so the timed pass
		// measures steady-state serving, not cold misses.
		drivePool(t, pool, benchWorkers, ops/4)
		start := time.Now()
		drivePool(t, pool, benchWorkers, ops)
		elapsed := time.Since(start)
		cleanup()
		results = append(results, shadowBenchResult{
			Bank:      tc.name,
			Shadows:   tc.shadows,
			Workers:   benchWorkers,
			Ops:       ops,
			NsPerOp:   float64(elapsed.Nanoseconds()) / float64(ops),
			OpsPerSec: float64(ops) / elapsed.Seconds(),
		})
	}
	out := struct {
		Benchmark  string              `json:"benchmark"`
		GOOS       string              `json:"goos"`
		GOARCH     string              `json:"goarch"`
		GOMAXPROCS int                 `json:"gomaxprocs"`
		Results    []shadowBenchResult `json:"results"`
	}{
		Benchmark:  "PoolShadow",
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Results:    results,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d results to %s", len(results), path)
}
