package buffer

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/page"
	"repro/internal/storage"
)

// Router is the sharding layer: it partitions a buffer across N
// independent locked engines, each with its own replacement-policy
// instance behind its own mutex. Requests hash page.ID to a shard, so
// goroutines touching different shards never contend — the standard
// escape from the single global lock of a LockedEngine on multi-core
// serving workloads.
//
// Semantics relative to one big engine:
//
//   - Capacity is split across the shards (as evenly as page counts
//     allow), and each policy instance is constructed by the
//     PolicyFactory with its shard's capacity, so capacity-relative
//     parameters (SLRU candidate sets, ASB overflow sizing) scale down
//     per shard. ASB's self-tuning c adapts independently per shard:
//     each shard sees an unbiased hash-sample of the reference stream,
//     so the per-shard signals of §4.2 estimate the same workload
//     property the global signal would.
//   - Replacement decisions are local to a shard. A single-shard router
//     (Shards() == 1) is behaviourally identical to a locked engine —
//     the equivalence the tests pin down; with more shards the resident
//     set partitions, which can change miss counts slightly (the classic
//     partitioned-LRU approximation).
//   - Stats() merges the per-shard counters with Stats.Add; the sums are
//     exact because each counter is owned by exactly one shard.
//
// A Router is safe for concurrent use by any number of goroutines.
// Sinks attached via SetSink receive the merged event stream of all
// shards (each event tagged with its shard index via obs.TagShard) and
// must therefore be safe for concurrent use. The layer owns exactly the
// routing invariants: hashing, capacity splitting, per-shard fan-out of
// sinks/tracers/profilers, and stats merging — the request path itself
// stays in the engines.
type Router struct {
	shards   []*LockedEngine
	capacity int

	// store is the shared page store all shards read and write; kept for
	// the async layer, which hands it to the write-back queue.
	store storage.Store
}

// NewRouter builds a sharded pool of the given total capacity (in
// frames) over the store, with one policy instance per shard
// constructed by the factory. shards is clamped to [1, capacity/2] so
// every shard owns at least two frames (the minimum any standard policy
// accepts); pass shards = 1 for a drop-in, lock-per-request equivalent
// of a LockedEngine. The store is shared by all shards and must be safe
// for concurrent use.
func NewRouter(store storage.Store, factory PolicyFactory, capacity, shards int) (*Router, error) {
	if store == nil || factory == nil {
		return nil, errors.New("buffer: nil store or policy factory")
	}
	if capacity < 1 {
		return nil, fmt.Errorf("buffer: capacity %d, need ≥ 1", capacity)
	}
	if shards < 1 {
		shards = 1
	}
	if max := capacity / 2; shards > max {
		shards = max
		if shards < 1 {
			shards = 1
		}
	}
	r := &Router{shards: make([]*LockedEngine, shards), capacity: capacity, store: store}
	base, extra := capacity/shards, capacity%shards
	for i := range r.shards {
		shardCap := base
		if i < extra {
			shardCap++
		}
		pol := factory(shardCap)
		if pol == nil {
			return nil, fmt.Errorf("buffer: policy factory returned nil for shard %d", i)
		}
		e, err := NewEngine(store, pol, shardCap)
		if err != nil {
			return nil, fmt.Errorf("buffer: shard %d: %w", i, err)
		}
		r.shards[i] = lockForShard(e, i)
	}
	return r, nil
}

// shardIndex routes a page ID to its shard index. The murmur3 finalizer
// mixes the (often dense, sequential) page IDs so neighbouring tree
// nodes spread across shards instead of piling onto one.
func (r *Router) shardIndex(id page.ID) int {
	h := uint64(id)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % uint64(len(r.shards)))
}

// shardFor routes a page ID to its shard.
func (r *Router) shardFor(id page.ID) *LockedEngine {
	return r.shards[r.shardIndex(id)]
}

// Shards returns the number of shards (≥ 1; may be lower than requested
// at construction when the capacity could not feed that many shards).
func (r *Router) Shards() int { return len(r.shards) }

// Capacity returns the total buffer capacity in frames (the sum of the
// shard capacities).
func (r *Router) Capacity() int { return r.capacity }

// ShardCapacity returns the capacity of shard i in frames.
func (r *Router) ShardCapacity(i int) int { return r.shards[i].Capacity() }

// ShardPolicy returns shard i's replacement-policy instance. The policy
// is driven under the shard's mutex, so while the pool is serving, only
// accessors documented as concurrency-safe (e.g. core.ASB's atomic
// gauge mirrors) may be called on it.
func (r *Router) ShardPolicy(i int) Policy { return r.shards[i].Policy() }

// ShardLen returns the number of pages resident in shard i.
func (r *Router) ShardLen(i int) int { return r.shards[i].Len() }

// ShardStats returns a snapshot of shard i's counters.
func (r *Router) ShardStats(i int) Stats { return r.shards[i].Stats() }

// Get implements Pool (and rtree.Reader): the request is served by the
// page's shard.
func (r *Router) Get(id page.ID, ctx AccessContext) (*page.Page, error) {
	return r.shardFor(id).Get(id, ctx)
}

// Put implements Pool: the write path of the page's shard. Put never
// reads the store (the caller provides the content), so it runs under
// the shard lock in every composition; a dirty victim it evicts is
// still queued for background write-back when the async layer is
// stacked on top.
func (r *Router) Put(pg *page.Page, ctx AccessContext) error {
	if pg == nil || pg.ID == page.InvalidID {
		return errors.New("buffer: put of invalid page")
	}
	return r.shardFor(pg.ID).Put(pg, ctx)
}

// Fix implements Pool: pins the page in its shard.
func (r *Router) Fix(id page.ID, ctx AccessContext) (*page.Page, error) {
	return r.shardFor(id).Fix(id, ctx)
}

// Unfix implements Pool.
func (r *Router) Unfix(id page.ID) error {
	return r.shardFor(id).Unfix(id)
}

// MarkDirty implements Pool.
func (r *Router) MarkDirty(id page.ID) error {
	return r.shardFor(id).MarkDirty(id)
}

// Contains reports whether the page is resident in its shard, without
// counting a request.
func (r *Router) Contains(id page.ID) bool {
	return r.shardFor(id).Contains(id)
}

// Flush writes back all dirty resident pages, shard by shard.
func (r *Router) Flush() error {
	for i, sh := range r.shards {
		if err := sh.Flush(); err != nil {
			return fmt.Errorf("buffer: flush shard %d: %w", i, err)
		}
	}
	return nil
}

// Close flushes the pool. It exists so every composition exposes the
// same shutdown call; only the async layer has goroutines to stop.
func (r *Router) Close() error { return r.Flush() }

// Clear evicts everything, resets every shard's policy and zeroes all
// counters. Shards are cleared one at a time; concurrent requests
// against not-yet-cleared shards proceed normally, so quiesce the pool
// first when a globally cold start matters.
func (r *Router) Clear() error {
	for i, sh := range r.shards {
		if err := sh.Clear(); err != nil {
			return fmt.Errorf("buffer: clear shard %d: %w", i, err)
		}
	}
	return nil
}

// Stats returns the merge (Stats.Add) of the per-shard counters. Under
// concurrent load the shards are snapshotted one after another, so the
// merged values are per-shard consistent but not a single instant in
// global time — the usual multi-counter scrape contract.
func (r *Router) Stats() Stats {
	var total Stats
	for _, sh := range r.shards {
		total.Add(sh.Stats())
	}
	return total
}

// Len returns the total number of resident pages across all shards.
func (r *Router) Len() int {
	n := 0
	for _, sh := range r.shards {
		n += sh.Len()
	}
	return n
}

// ResidentIDs returns the IDs of all resident pages across all shards,
// sorted (the per-shard order is unspecified, so sorting makes the
// result deterministic for tests and diffing).
func (r *Router) ResidentIDs() []page.ID {
	var ids []page.ID
	for _, sh := range r.shards {
		ids = append(ids, sh.ResidentIDs()...)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// InflightReads returns the number of physical reads currently in
// progress outside the shard locks — the summed occupancy of the
// per-shard singleflight tables. Always 0 without the async layer: the
// synchronous miss path reads under the shard lock. The shards are
// counted one after another, so under churn the sum is an instantaneous
// estimate, not an atomic snapshot — the usual multi-counter scrape
// contract.
func (r *Router) InflightReads() int {
	n := 0
	for _, sh := range r.shards {
		n += sh.inflightLen()
	}
	return n
}

// SetSink attaches one observability sink to every shard, wrapped with
// obs.TagShard so each event carries its shard index; Engine.SetSink
// forwards the tagged sink to each shard's policy, so the whole sharded
// stack emits into s. The sink receives events from all shards
// concurrently and must be safe for concurrent use (obs.Counters, the
// live service sink and the async ring are). A nil sink detaches.
func (r *Router) SetSink(s obs.Sink) {
	for i, sh := range r.shards {
		sh.SetSink(obs.TagShard(s, i))
	}
}

// SetTracer attaches one request-scoped span tracer to every shard (see
// Engine.SetTracer); each shard records under its own index, into its
// own trace ring, so spans carry the shard the page hashed to. While a
// tracer is attached, each request's shard-lock wait is measured and
// lands in its root span's LockWait. The tracer must have been built
// with at least Shards() rings. A nil tracer detaches.
func (r *Router) SetTracer(t *tracing.Tracer) {
	for _, sh := range r.shards {
		sh.SetTracer(t)
	}
}

// EnableContention attaches a shard-contention profiler: every request's
// lock acquisition reports its wait time and queue position under its
// shard index. The profiler must have been built with at least Shards()
// shards. Pass nil to stop profiling.
func (r *Router) EnableContention(c *tracing.Contention) {
	for _, sh := range r.shards {
		sh.EnableContention(c)
	}
}
