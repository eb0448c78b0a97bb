package buffer

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/page"
)

// benchNumPages and benchCapacity shape the benchmark workload: a hot
// set that mostly fits and a cold tail that forces steady eviction
// traffic — the serving profile bufserve replays.
const (
	benchNumPages = 512
	benchCapacity = 128
	benchHotPages = 64
)

// benchPageID mixes a hot subset (3 of 4 accesses) with a uniform tail.
func benchPageID(rng *rand.Rand) page.ID {
	if rng.Intn(4) < 3 {
		return page.ID(rng.Intn(benchHotPages) + 1)
	}
	return page.ID(rng.Intn(benchNumPages) + 1)
}

// drivePool issues ops requests against the pool from the given number
// of goroutines, sharing the work through an atomic cursor.
func drivePool(tb testing.TB, pool Pool, workers int, ops int64) {
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
				if _, err := pool.Get(benchPageID(rng), AccessContext{QueryID: uint64(i) / 4}); err != nil {
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

// benchPools builds the two contenders over fresh stores: a locked
// engine (one global mutex) and a Router with the given shard count.
func benchPools(tb testing.TB, shards int) (locked *LockedEngine, sharded *Router) {
	e, err := NewEngine(newStore(tb, benchNumPages), newTestPolicy(), benchCapacity)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := NewRouter(newStore(tb, benchNumPages), testFactory, benchCapacity, shards)
	if err != nil {
		tb.Fatal(err)
	}
	return Lock(e), r
}

// BenchmarkPoolParallel times the same hot/cold reference mix through a
// locked engine (one global mutex) and through an 8-shard Router
// (page-hashed per-shard mutexes) under 1, 4 and 8 request goroutines.
// Store, policy type and reference mix are the same for both, so the
// difference is the cost of one lock versus routing plus per-shard
// locks at each worker count.
func BenchmarkPoolParallel(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		syncPool, shardedPool := benchPools(b, 8)
		for _, tc := range []struct {
			name string
			pool Pool
		}{
			// Subtest names stay fixed so the bench gate pairs base and head rows.
			{"SyncManager", syncPool},
			{"ShardedPool", shardedPool},
		} {
			b.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				drivePool(b, tc.pool, workers, int64(b.N))
			})
		}
	}
}

// benchResult is one row of BENCH_pool.json.
type benchResult struct {
	Pool      string  `json:"pool"`
	Workers   int     `json:"workers"`
	Ops       int64   `json:"ops"`
	NsPerOp   float64 `json:"ns_per_op"`
	OpsPerSec float64 `json:"ops_per_sec"`
}

// TestWriteBenchPoolJSON self-times the locked-vs-sharded matrix, under
// the BenchmarkPoolParallel labels, and writes it as JSON to the path in
// BENCH_POOL_JSON — the machine-readable artifact CI archives. Without
// the variable the test is a no-op, so regular runs stay fast.
func TestWriteBenchPoolJSON(t *testing.T) {
	path := os.Getenv("BENCH_POOL_JSON")
	if path == "" {
		t.Skip("BENCH_POOL_JSON not set")
	}
	const ops = 300_000
	var results []benchResult
	for _, workers := range []int{1, 4, 8} {
		syncPool, shardedPool := benchPools(t, 8)
		for _, tc := range []struct {
			name string
			pool Pool
		}{
			{"SyncManager", syncPool},
			{"ShardedPool", shardedPool},
		} {
			// One untimed pass warms the resident sets so the timed pass
			// measures steady-state serving, not cold misses.
			drivePool(t, tc.pool, workers, ops/4)
			start := time.Now()
			drivePool(t, tc.pool, workers, ops)
			elapsed := time.Since(start)
			results = append(results, benchResult{
				Pool:      tc.name,
				Workers:   workers,
				Ops:       ops,
				NsPerOp:   float64(elapsed.Nanoseconds()) / float64(ops),
				OpsPerSec: float64(ops) / elapsed.Seconds(),
			})
		}
	}
	out := struct {
		Benchmark  string        `json:"benchmark"`
		GOOS       string        `json:"goos"`
		GOARCH     string        `json:"goarch"`
		GOMAXPROCS int           `json:"gomaxprocs"`
		Results    []benchResult `json:"results"`
	}{
		Benchmark:  "PoolParallel",
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
