package buffer

import (
	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/page"
)

// Pool is the buffer abstraction every consumer programs against: the
// read path (Get/Fix/Unfix), the write path (Put/MarkDirty/Flush), the
// lifecycle (Clear), and introspection (Stats/Len/SetSink). One engine
// and three stackable layers cover the concurrency spectrum:
//
//   - Engine — the bare single-threaded core the paper's experiments
//     use; fastest when one goroutine owns the buffer.
//   - LockedEngine (Lock) — one mutex around an Engine; strict global
//     accounting shared by many goroutines, throughput limited by the
//     single lock.
//   - Router (NewRouter) — page.ID-hashed shards, each an independent
//     locked engine with its own policy instance; scales with cores at
//     the cost of partitioned (per-shard) policy state.
//   - AsyncPool (Async) — a router whose engines read outside the shard
//     lock (singleflight-coalesced) and write back dirty victims in the
//     background; for miss-heavy workloads on slow stores.
//
// Composition.Build constructs any of the four from a spec string.
// rtree queries, the trace replayer and the serving commands all accept
// a Pool, so swapping the concurrency model is a constructor change, not
// a call-site change.
type Pool interface {
	// Get requests the page without pinning it (read path).
	Get(id page.ID, ctx AccessContext) (*page.Page, error)
	// Put installs a new page version and marks it dirty (write path).
	Put(p *page.Page, ctx AccessContext) error
	// Fix requests the page and pins its frame; the caller must Unfix.
	Fix(id page.ID, ctx AccessContext) (*page.Page, error)
	// Unfix releases one pin on the page.
	Unfix(id page.ID) error
	// MarkDirty flags a resident page for write-back.
	MarkDirty(id page.ID) error
	// Flush writes back all dirty resident pages without evicting them.
	Flush() error
	// Clear evicts everything, resets policy state and zeroes the stats.
	Clear() error
	// Stats returns a snapshot of the logical access counters. For
	// sharded implementations this is the merge of the per-shard
	// counters (Stats.Add).
	Stats() Stats
	// Len returns the number of resident pages.
	Len() int
	// SetSink attaches an observability sink to the pool and its
	// policies (nil detaches). Sinks attached to concurrent pools must
	// be safe for concurrent use.
	SetSink(s obs.Sink)
}

// PolicyFactory constructs a fresh replacement policy sized for a buffer
// of the given capacity (in frames). Policies with capacity-relative
// parameters (SLRU's candidate set, ASB's overflow buffer) derive them
// from the argument, so a sharded pool that calls the factory once per
// shard with the shard's capacity gets correctly scaled per-shard
// instances. core.Factory.New is of this type.
type PolicyFactory func(capacity int) Policy

// Compile-time interface checks: the engine and every layer stack
// implement Pool, and all four attach a tracer through the same
// SetTracer signature, so callers never switch on the concrete type.
var (
	_ Pool = (*Engine)(nil)
	_ Pool = (*LockedEngine)(nil)
	_ Pool = (*Router)(nil)
	_ Pool = (*AsyncPool)(nil)

	_ interface{ SetTracer(*tracing.Tracer) } = (*Engine)(nil)
	_ interface{ SetTracer(*tracing.Tracer) } = (*LockedEngine)(nil)
	_ interface{ SetTracer(*tracing.Tracer) } = (*Router)(nil)
	_ interface{ SetTracer(*tracing.Tracer) } = (*AsyncPool)(nil)
)
