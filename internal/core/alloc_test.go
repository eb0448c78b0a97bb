package core_test

// Allocation regression gate for the intrusive frame-table substrate:
// after warmup, serving requests — hits, misses with eviction, and
// writes — must perform ZERO heap allocations per operation for every
// standard policy. Frames recycle through the manager's arena, policy
// structures ride the frames' embedded link words, and LRU-K's history
// lives in flat slabs, so nothing on the request path escapes to the
// heap. CI runs TestPolicyZeroAlloc without -race (the race detector's
// instrumentation allocates, so the test skips itself under it).
//
// BenchmarkPolicyOpsReference is the old-implementation twin of
// BenchmarkPolicyOps; benchstat over the pair quantifies the refactor
// (see BENCH_policycore.json, written by TestWriteBenchPolicyCoreJSON).

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/page"
)

// allocFactories is the gate's policy set: the standard registry plus
// FIFO, each paired with its reference twin by name in refFactories.
func allocFactories() []core.Factory {
	return append(core.StandardFactories(),
		core.Factory{Name: "FIFO", New: func(int) buffer.Policy { return core.NewFIFO() }})
}

// TestPolicyZeroAlloc pins the tentpole invariant: steady-state
// Get/Put/victim-select allocates nothing, for every standard policy.
func TestPolicyZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const (
		capacity = 64
		numPages = 256
		traceLen = 4096
	)
	seq, specs := benchAccesses(numPages, traceLen)
	for _, f := range allocFactories() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			store := buildStore(t, specs)
			m := mustEngine(t, store, f.New(capacity), capacity)
			// Pre-read every page once so measured Puts reuse these
			// pointers; Clone during measurement would be a false positive.
			puts := make([]*page.Page, numPages+1)
			for id := 1; id <= numPages; id++ {
				p, err := store.Read(page.ID(id))
				if err != nil {
					t.Fatal(err)
				}
				puts[id] = p.Clone()
			}
			step := func(i int) {
				a := seq[i%len(seq)]
				ctx := buffer.AccessContext{QueryID: a.query}
				if i%16 == 7 {
					if err := m.Put(puts[int(a.id)], ctx); err != nil {
						t.Fatal(err)
					}
					return
				}
				if _, err := m.Get(a.id, ctx); err != nil {
					t.Fatal(err)
				}
			}
			// Warmup: fill the buffer, grow LRU-K's history slabs and every
			// map to its steady-state size, populate the arena free-list.
			for i := 0; i < traceLen; i++ {
				step(i)
			}
			pos := 0
			avg := testing.AllocsPerRun(50, func() {
				for i := 0; i < 64; i++ {
					step(pos)
					pos++
				}
			})
			if avg != 0 {
				t.Errorf("%s: %.2f allocs per 64 steady-state requests, want 0", f.Name, avg)
			}
		})
	}
}

// BenchmarkPolicyOpsReference is BenchmarkPolicyOps run against the
// preserved old-style (container/list-era) policy implementations, kept
// so benchstat can compare the intrusive substrate against its baseline:
//
//	go test -bench 'PolicyOps$' -benchmem ./internal/core/ > new.txt
//	go test -bench PolicyOpsReference -benchmem ./internal/core/ > old.txt
func BenchmarkPolicyOpsReference(b *testing.B) {
	const numPages = 2048
	seq, specs := benchAccesses(numPages, 1<<16)
	for _, f := range core.StandardFactories() {
		if _, ok := refFactories(256)[f.Name]; !ok {
			b.Fatalf("no reference implementation for %q", f.Name)
		}
		b.Run(f.Name, func(b *testing.B) {
			// A fresh policy per run, like BenchmarkPolicyOps: b.Run calls
			// this body more than once, and a policy must not outlive its
			// engine's frames.
			s := buildStoreB(b, specs)
			m, err := buffer.NewEngine(s, refFactories(256)[f.Name], 256)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := seq[i%len(seq)]
				if _, err := m.Get(a.id, buffer.AccessContext{QueryID: a.query}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// policyCoreResult is one row of BENCH_policycore.json: the same policy
// and trace measured on the old (reference) and new (intrusive)
// implementations, with per-op time and allocation counts.
type policyCoreResult struct {
	Policy      string  `json:"policy"`
	OldNsPerOp  float64 `json:"old_ns_per_op"`
	NewNsPerOp  float64 `json:"new_ns_per_op"`
	OldAllocsOp float64 `json:"old_allocs_per_op"`
	NewAllocsOp float64 `json:"new_allocs_per_op"`
	Speedup     float64 `json:"speedup"`
}

// measurePolicy replays ops requests and returns ns/op and allocs/op
// (steady state: one warmup pass runs untimed).
func measurePolicy(t *testing.T, pol buffer.Policy, seq []access, specs []pageSpec, ops int) (float64, float64) {
	t.Helper()
	store := buildStore(t, specs)
	m := mustEngine(t, store, pol, 256)
	run := func(n int) {
		for i := 0; i < n; i++ {
			a := seq[i%len(seq)]
			if _, err := m.Get(a.id, buffer.AccessContext{QueryID: a.query}); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(ops / 4)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	run(ops)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(ops)
	return float64(elapsed.Nanoseconds()) / float64(ops), allocs
}

// TestWriteBenchPolicyCoreJSON measures the old-vs-new policy matrix and
// writes BENCH_policycore.json to the path in BENCH_POLICYCORE_JSON —
// the before/after record of the intrusive-substrate refactor.
func TestWriteBenchPolicyCoreJSON(t *testing.T) {
	path := os.Getenv("BENCH_POLICYCORE_JSON")
	if path == "" {
		t.Skip("BENCH_POLICYCORE_JSON not set")
	}
	const (
		numPages = 2048
		ops      = 200_000
	)
	seq, specs := benchAccesses(numPages, 1<<16)
	var results []policyCoreResult
	for _, f := range core.StandardFactories() {
		ref, ok := refFactories(256)[f.Name]
		if !ok {
			t.Fatalf("no reference implementation for %q", f.Name)
		}
		oldNs, oldAllocs := measurePolicy(t, ref, seq, specs, ops)
		newNs, newAllocs := measurePolicy(t, f.New(256), seq, specs, ops)
		results = append(results, policyCoreResult{
			Policy:      f.Name,
			OldNsPerOp:  oldNs,
			NewNsPerOp:  newNs,
			OldAllocsOp: oldAllocs,
			NewAllocsOp: newAllocs,
			Speedup:     oldNs / newNs,
		})
		fmt.Printf("%-10s old %7.1f ns/op %6.3f allocs/op   new %7.1f ns/op %6.3f allocs/op\n",
			f.Name, oldNs, oldAllocs, newNs, newAllocs)
	}
	out := struct {
		Benchmark  string             `json:"benchmark"`
		GOOS       string             `json:"goos"`
		GOARCH     string             `json:"goarch"`
		GOMAXPROCS int                `json:"gomaxprocs"`
		Capacity   int                `json:"capacity"`
		NumPages   int                `json:"num_pages"`
		Ops        int                `json:"ops"`
		Results    []policyCoreResult `json:"results"`
	}{
		Benchmark:  "PolicyOps old (container/list era) vs new (intrusive substrate)",
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Capacity:   256,
		NumPages:   numPages,
		Ops:        ops,
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
