package buffer

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/page"
	"repro/internal/storage"
)

// Engine is the core of every pool composition: the unlocked,
// single-threaded owner of the entire request path — frame arena
// lifecycle, hit/miss accounting, read-before-evict ordering, pin
// counts, dirty tracking and policy callbacks. It is also the only code
// in the package that emits request-path observability events (and the
// shadow page metadata they carry) and starts request-scoped tracing
// spans.
//
// An Engine on its own is not safe for concurrent use — that is the
// locking layer's job (Lock / LockedEngine). The sharding layer
// (NewRouter) routes page IDs across many locked engines. The async-I/O
// layer (Async) only switches on a second miss protocol the engine
// itself implements (serveAsync): singleflight reads outside the latch
// plus background write-back. That protocol lives here, not in the
// layer, because the frame table, the flight table and the trace slot
// share one serialization domain (see DESIGN.md, "Engine layering").
//
// The experiment harness runs one bare engine per goroutine, exactly as
// the paper's single-threaded evaluation does.
type Engine struct {
	store    storage.Store
	policy   Policy
	capacity int

	// io is the store the request path actually reads and writes: the raw
	// store normally, or a storage.Traced wrapper around it while a tracer
	// is attached (so physical I/O shows up as child spans).
	io storage.Store

	frames map[page.ID]*Frame
	arena  *Arena
	clock  uint64
	stats  Stats

	// sink receives observability events; never nil (NopSink by
	// default), so the hot path emits unconditionally and stays
	// allocation-free when unobserved.
	sink obs.Sink
	// timer is non-nil only when sink implements obs.LatencyRecorder;
	// then each request is bracketed with monotonic-clock readings and
	// the elapsed nanoseconds published. Latency-blind sinks (including
	// NopSink) keep the hot path free of clock reads.
	timer obs.LatencyRecorder

	// tracer samples request-scoped span traces; nil when tracing is
	// disabled (the request path then pays a single pointer test). shard
	// is the pool-shard index stamped on every span this engine records,
	// set once by the sharding layer (lockForShard); 0 otherwise.
	tracer *tracing.Tracer
	shard  int
	// slot hands the current request's Active trace to the policy and the
	// traced store; it is read and written only under the engine's
	// serialization (its latch in concurrent compositions).
	slot tracing.Slot
	// pendingLockWait is the latch wait of the request about to run,
	// deposited by the enclosing locking layer after it acquired the
	// latch and consumed (and cleared) by the next traced request.
	pendingLockWait int64

	// latch is the lock serializing this engine, owned by the locking
	// layer (a no-op for bare engines). The engine itself never acquires
	// it around whole requests — callers do; the async miss path drops
	// and re-acquires it around physical reads.
	latch sync.Locker

	// flight, when non-nil, switches the miss path to the asynchronous
	// protocol: one entry per page whose physical read is currently in
	// progress outside the latch, shared by every concurrent miss for
	// that page. Nil on synchronous engines.
	flight map[page.ID]*inflight

	// wb, when non-nil, receives dirty evicted pages for background
	// write-back instead of the synchronous under-latch store write.
	wb writebackEnqueuer
}

// nopLocker is the latch of a bare (single-threaded) engine.
type nopLocker struct{}

func (nopLocker) Lock()   {}
func (nopLocker) Unlock() {}

// NewEngine creates a bare core engine of the given capacity (in
// frames, ≥ 1) over store, managed by policy. Wrap it with Lock for
// concurrent use, or build a full composition with Composition.Build.
func NewEngine(store storage.Store, policy Policy, capacity int) (*Engine, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("buffer: capacity %d, need ≥ 1", capacity)
	}
	if store == nil || policy == nil {
		return nil, errors.New("buffer: nil store or policy")
	}
	return &Engine{
		store:    store,
		policy:   policy,
		capacity: capacity,
		io:       store,
		frames:   make(map[page.ID]*Frame, capacity),
		arena:    NewArena(capacity),
		sink:     obs.NopSink{},
		latch:    nopLocker{},
	}, nil
}

// enableAsync switches the engine's miss path to the asynchronous
// protocol: physical reads run outside the latch with singleflight
// coalescing, and dirty victims drain through wb. Called by the async
// layer at composition time, before the engine serves requests.
func (e *Engine) enableAsync(wb writebackEnqueuer) {
	e.flight = make(map[page.ID]*inflight)
	e.wb = wb
}

// setLatch installs the serializing lock of the enclosing locking
// layer. Only the async miss path ever acquires it (to drop it around
// physical reads); requests as a whole are locked by the layer itself.
func (e *Engine) setLatch(l sync.Locker) { e.latch = l }

// SetSink attaches an observability sink to the engine and, if the
// policy implements obs.SinkSetter, to the policy as well — one call
// instruments the whole stack. A nil sink detaches (back to NopSink).
// The engine emits Request events; instrumented policies emit
// Eviction, OverflowPromotion and Adapt events.
func (e *Engine) SetSink(s obs.Sink) {
	if s == nil {
		s = obs.NopSink{}
	}
	e.sink = s
	e.timer, _ = s.(obs.LatencyRecorder)
	if ss, ok := e.policy.(obs.SinkSetter); ok {
		ss.SetSink(s)
	}
}

// SetTracer attaches a request-scoped span tracer to the engine, to its
// store (via a storage.Traced wrapper, so physical I/O appears as child
// spans) and, if the policy implements tracing.SlotSetter, to the policy
// (so victim selections and ASB adaptations appear as child spans) —
// like SetSink, one call instruments the whole stack. Spans carry the
// engine's shard index (0 unless a Router owns the engine), which also
// selects the tracer's trace ring. A nil tracer detaches everything.
func (e *Engine) SetTracer(t *tracing.Tracer) {
	e.tracer = t
	e.pendingLockWait = 0
	if t != nil {
		e.io = storage.Traced(e.store, &e.slot)
	} else {
		e.io = e.store
		e.slot.SetActive(nil)
	}
	if ss, ok := e.policy.(tracing.SlotSetter); ok {
		if t != nil {
			ss.SetTraceSlot(&e.slot)
		} else {
			ss.SetTraceSlot(nil)
		}
	}
}

// Tracer returns the attached tracer, or nil when tracing is disabled.
func (e *Engine) Tracer() *tracing.Tracer { return e.tracer }

// depositLockWait records the latch wait of the request about to run;
// the next traced request attaches it to its root span. Called by the
// locking layer after acquiring the latch.
func (e *Engine) depositLockWait(ns int64) { e.pendingLockWait = ns }

// Capacity returns the buffer capacity in frames.
func (e *Engine) Capacity() int { return e.capacity }

// Len returns the number of resident pages.
func (e *Engine) Len() int { return len(e.frames) }

// Contains reports whether the page is resident (without counting a
// request or touching policy state).
func (e *Engine) Contains(id page.ID) bool {
	_, ok := e.frames[id]
	return ok
}

// Policy returns the replacement policy driving this engine.
func (e *Engine) Policy() Policy { return e.policy }

// Stats returns the logical access counters.
func (e *Engine) Stats() Stats { return e.stats }

// Get requests the page without pinning it. The returned page must be
// treated as read-only and may be evicted by any later request.
func (e *Engine) Get(id page.ID, ctx AccessContext) (*page.Page, error) {
	return e.request(tracing.KindGet, id, ctx, false)
}

// Fix requests the page and pins its frame; the caller must Unfix it.
// Pinned frames are never evicted.
func (e *Engine) Fix(id page.ID, ctx AccessContext) (*page.Page, error) {
	return e.request(tracing.KindFix, id, ctx, true)
}

// beginRequest starts the root tracing span of one request-path
// operation, consuming the deposited latch wait. It is the single site
// in the package that starts request spans; it returns nil when tracing
// is off or the request was not sampled.
func (e *Engine) beginRequest(kind tracing.SpanKind, id page.ID, query uint64) *tracing.Active {
	if e.tracer == nil {
		return nil
	}
	wait := e.pendingLockWait
	e.pendingLockWait = 0
	return e.tracer.StartRequest(kind, id, query, e.shard, wait)
}

// request implements the read-path protocol for Get (pin=false) and Fix
// (pin=true), timing the request when the sink asked for latencies and
// tracing it when a tracer sampled it.
func (e *Engine) request(kind tracing.SpanKind, id page.ID, ctx AccessContext, pin bool) (*page.Page, error) {
	if a := e.beginRequest(kind, id, ctx.QueryID); a != nil {
		e.slot.SetActive(a)
		pg, hit, err := e.timedServe(id, ctx, pin)
		e.slot.SetActive(nil)
		a.Finish(hit, err != nil)
		return pg, err
	}
	pg, _, err := e.timedServe(id, ctx, pin)
	return pg, err
}

// timedServe brackets serve with latency timing when the sink asked for
// it.
func (e *Engine) timedServe(id page.ID, ctx AccessContext, pin bool) (*page.Page, bool, error) {
	if e.timer == nil {
		return e.serve(id, ctx, pin)
	}
	start := time.Now()
	pg, hit, err := e.serve(id, ctx, pin)
	e.timer.RecordLatency(time.Since(start).Nanoseconds())
	return pg, hit, err
}

// serve is the untimed hit/miss protocol, reporting whether the request
// hit. Synchronous engines (no flight table) run the seed sequence —
// count, read, evict, admit — entirely under the caller's latch;
// engines switched to the async protocol by the async layer coalesce
// concurrent misses and read outside the latch. Both modes are entered
// and left with the latch held.
func (e *Engine) serve(id page.ID, ctx AccessContext, pin bool) (*page.Page, bool, error) {
	if e.flight == nil {
		return e.serveSync(id, ctx, pin)
	}
	return e.serveAsync(id, ctx, pin)
}

// serveSync is the synchronous request path: any physical read happens
// in place, under the caller's serialization. Read before evicting: a
// failed read must not discard a perfectly good cached page (or count
// an eviction) for a request that errored.
func (e *Engine) serveSync(id page.ID, ctx AccessContext, pin bool) (*page.Page, bool, error) {
	if f, ok := e.frames[id]; ok {
		e.hit(f, ctx)
		if pin {
			f.pins++
		}
		return f.Page, true, nil
	}
	now := e.miss(false)
	p, err := e.io.Read(id)
	if err != nil {
		// The miss was counted, so its event must still flow — with a
		// zero Meta, since no page materialized.
		e.emitMiss(id, ctx, false, page.Meta{})
		return nil, false, err
	}
	// Emit after the successful read, so the event carries the page's
	// Meta (shadow caches replay spatial criteria from it), and before
	// admission, so Request still precedes any Eviction it causes.
	e.emitMiss(id, ctx, false, p.Meta)
	f, err := e.admit(p, now, ctx)
	if err != nil {
		return nil, false, err
	}
	if pin {
		f.pins++
	}
	return f.Page, false, nil
}

// serveAsync is the non-blocking miss protocol. It is entered and left
// with the latch held. Under the latch it checks, in order: the
// resident frames (hit), the flight table (coalesce onto an in-progress
// read), and the write-back queue (read-your-writes: a queued dirty
// page is re-admitted without I/O). Only when all three miss does it
// become the leader: it registers an inflight entry, releases the
// latch, reads the store, and re-acquires the latch to publish the
// result to any waiters and admit the page.
//
// counted flips when the request has been accounted (exactly one
// Request event per call); the loop only repeats for Fix waiters, whose
// pin requires a resident frame and who therefore retry after the
// leader's publication until they can pin (or become leaders
// themselves).
func (e *Engine) serveAsync(id page.ID, ctx AccessContext, pin bool) (*page.Page, bool, error) {
	// The engine's Active slot carries the trace to the policy and the
	// traced store while the latch is held; it must be parked (cleared
	// before every unlock) because other requests use the engine — and
	// the slot — while we wait or read, and restored after every
	// re-acquisition.
	a := e.slot.Active()
	counted := false
	for {
		if a != nil {
			e.slot.SetActive(a)
		}

		if fr := e.frames[id]; fr != nil {
			hit := false
			if !counted {
				e.hit(fr, ctx)
				hit = true
			}
			if pin {
				fr.pins++
			}
			return fr.Page, hit, nil
		}

		if fl, ok := e.flight[id]; ok {
			// Another request is reading this page right now: count a
			// coalesced miss and wait for its result outside the latch. The
			// event is emitted here, under the latch, with a zero Meta — the
			// waiter never observes the page while holding the latch, and
			// deferring emission past the unlock would interleave it with
			// other requests' events (documented accuracy caveat of the
			// shadow-cache contract).
			if !counted {
				e.miss(true)
				e.emitMiss(id, ctx, true, page.Meta{})
				counted = true
			}
			if a != nil {
				e.slot.SetActive(nil)
			}
			e.latch.Unlock()

			widx := int32(-1)
			if a != nil {
				widx = a.Start(tracing.KindIOWait)
			}
			<-fl.done
			if a != nil {
				sp := a.At(widx)
				sp.Page = id
				sp.Hit = true // coalesced: shared another request's read
				a.End(widx)
			}
			if fl.err != nil {
				e.latch.Lock()
				return nil, false, fl.err
			}
			if !pin {
				// Get needs only the bytes; the leader admitted (or
				// resolved) the page. Re-acquire the latch only to restore
				// the caller's locking invariant.
				e.latch.Lock()
				return fl.page, false, nil
			}
			// Fix must pin a resident frame; retry under the latch (the
			// frame may already be evicted again, in which case the loop
			// coalesces or leads a fresh read — without recounting).
			e.latch.Lock()
			continue
		}

		if pg, ok := e.takeQueued(id); ok {
			// The page sits in the write-back queue: the store still holds
			// stale bytes, so the queued version is re-admitted directly —
			// no I/O — and stays dirty (its canceled write must eventually
			// happen via a later eviction or Flush).
			var now uint64
			if !counted {
				now = e.miss(true)
				e.emitMiss(id, ctx, true, pg.Meta)
				counted = true
			} else {
				now = e.tick()
			}
			fr, err := e.admit(pg, now, ctx)
			if err != nil {
				// Admission failed (all frames pinned): the dirty page must
				// not be lost — put its write back in motion.
				if !e.wb.enqueue(pg) {
					if werr := e.store.Write(pg); werr != nil {
						err = errors.Join(err, werr)
					}
				}
				return nil, false, err
			}
			fr.Dirty = true
			if pin {
				fr.pins++
			}
			return fr.Page, false, nil
		}

		// Leader: register the read and perform it outside the latch. The
		// miss is counted now, but its event is emitted at publish time
		// (under the re-acquired latch, before admission) so it can carry
		// the Meta of the page the request actually resolved to.
		var now uint64
		emitPending := !counted
		if !counted {
			now = e.miss(false)
			counted = true
		} else {
			now = e.tick()
		}
		fl := &inflight{done: make(chan struct{})}
		e.flight[id] = fl
		if a != nil {
			e.slot.SetActive(nil)
		}
		e.latch.Unlock()

		ridx := int32(-1)
		if a != nil {
			ridx = a.Start(tracing.KindStoreRead)
		}
		rpg, rerr := e.store.Read(id)
		if a != nil {
			sp := a.At(ridx)
			sp.Page = id
			sp.Err = rerr != nil
			if rpg != nil {
				sp.Bytes = int32(storage.PageBytes(rpg))
			}
			a.End(ridx)
		}

		e.latch.Lock()
		if a != nil {
			e.slot.SetActive(a)
		}
		published := rpg
		var fr *Frame
		var aerr error
		if rerr != nil {
			// The counted miss still emits exactly one event; no page
			// materialized, so its Meta stays zero.
			if emitPending {
				e.emitMiss(id, ctx, false, page.Meta{})
			}
		} else {
			if fr = e.frames[id]; fr != nil {
				// A Put raced the page in while we read: its version is
				// newer — serve it and discard the read.
				published = fr.Page
				if emitPending {
					e.emitMiss(id, ctx, false, fr.Meta)
				}
			} else if pg, ok := e.takeQueued(id); ok {
				// Re-admitted dirty (by a Put) and evicted again while we
				// read: the queued version is newer than our read.
				published = pg
				if emitPending {
					e.emitMiss(id, ctx, false, pg.Meta)
				}
				fr, aerr = e.admit(pg, now, ctx)
				if fr != nil {
					fr.Dirty = true
				} else if !e.wb.enqueue(pg) {
					if werr := e.store.Write(pg); werr != nil {
						aerr = errors.Join(aerr, werr)
					}
				}
			} else {
				if emitPending {
					e.emitMiss(id, ctx, false, rpg.Meta)
				}
				fr, aerr = e.admit(rpg, now, ctx)
			}
		}
		// Publish: fields first, then unregister, then close — all under
		// the latch, so the close happens-before any waiter's field read
		// and a failed read leaves no residue for later misses. Waiters
		// get the resolved bytes even when only admission failed
		// (ErrAllPinned is the leader's error, not theirs).
		fl.page, fl.err = published, rerr
		delete(e.flight, id)
		close(fl.done)
		if rerr != nil {
			return nil, false, rerr
		}
		if aerr != nil {
			return nil, false, aerr
		}
		if pin {
			fr.pins++
		}
		return fr.Page, false, nil
	}
}

// takeQueued cancels and returns the write-back queue's pending version
// of id, if a queue is attached and holds one.
func (e *Engine) takeQueued(id page.ID) (*page.Page, bool) {
	if e.wb == nil {
		return nil, false
	}
	return e.wb.take(id)
}

// inflightLen returns the occupancy of the flight table (0 on
// synchronous engines). Must run under the engine's serialization.
func (e *Engine) inflightLen() int { return len(e.flight) }

// hit accounts one read request served by the resident frame f: clock
// tick, hit counters, sink event, policy OnHit, LastUse update. Must
// run under the engine's serialization.
func (e *Engine) hit(f *Frame, ctx AccessContext) {
	e.clock++
	now := e.clock
	e.stats.Requests++
	e.stats.Hits++
	e.emitRequest(obs.RequestEvent{Page: f.Meta.ID, QueryID: ctx.QueryID, Hit: true, Meta: f.Meta})
	e.policy.OnHit(f, now, ctx)
	f.LastUse = now
}

// miss accounts one read request that missed and returns the request's
// logical time, at which the page should later be admitted. coalesced
// marks misses that will share another request's physical read instead
// of performing their own. Counting is split from event emission
// (emitMiss) so the miss paths can attach the read page's Meta to the
// event once the read resolved. Must run under the engine's
// serialization.
func (e *Engine) miss(coalesced bool) uint64 {
	e.clock++
	e.stats.Requests++
	e.stats.Misses++
	if coalesced {
		e.stats.Coalesced++
	}
	return e.clock
}

// emitMiss publishes the Request event of a miss counted by miss,
// exactly once per counted miss. meta is the descriptor of the page the
// miss resolved to, or the zero Meta when none materialized (failed
// reads, coalesced waiters). Must run under the engine's serialization.
func (e *Engine) emitMiss(id page.ID, ctx AccessContext, coalesced bool, meta page.Meta) {
	e.emitRequest(obs.RequestEvent{Page: id, QueryID: ctx.QueryID, Hit: false, Coalesced: coalesced, Meta: meta})
}

// emitRequest publishes one request event — the single site in the
// package that emits request-path observability events (and, through
// the event's Meta, the metadata the shadow-cache profiler replays).
func (e *Engine) emitRequest(ev obs.RequestEvent) {
	e.sink.Request(ev)
}

// tick advances the logical clock for a request that was already
// accounted (a coalesced waiter retrying as a fresh reader). Must run
// under the engine's serialization.
func (e *Engine) tick() uint64 {
	e.clock++
	return e.clock
}

// admit installs the freshly read page at logical time now, evicting
// first when the buffer is full. Must run under the engine's
// serialization; now must come from miss/tick.
func (e *Engine) admit(p *page.Page, now uint64, ctx AccessContext) (*Frame, error) {
	if len(e.frames) >= e.capacity {
		if err := e.evictOne(ctx); err != nil {
			return nil, err
		}
	}
	f := e.allocFrame()
	f.Meta = p.Meta
	f.Page = p
	f.LastUse = now
	e.frames[p.ID] = f
	e.policy.OnAdmit(f, now, ctx)
	return f, nil
}

// allocFrame takes a scrubbed frame from the arena. The capacity check in
// the admit paths guarantees a free frame (residents ≤ capacity = arena
// size); the heap fallback only exists so an invariant bug degrades to an
// allocation instead of a crash.
func (e *Engine) allocFrame() *Frame {
	if f := e.arena.Alloc(); f != nil {
		return f
	}
	return &Frame{}
}

// writebackEnqueuer is the hook a background write-back queue installs
// on an engine (via enableAsync): enqueue hands over a dirty evicted
// page and reports whether the queue accepted it. It is called under
// the latch, so it must never block; a false return (queue full or
// closed) makes the engine fall back to a synchronous write — the
// queue-full backpressure path. take cancels (and returns) the pending
// entry for a page, so a newer version entering the buffer supersedes a
// queued older one before its stale write can land.
type writebackEnqueuer interface {
	enqueue(p *page.Page) bool
	take(id page.ID) (*page.Page, bool)
}

// evictOne asks the policy for a victim, writes it back if dirty (or
// hands it to the background write-back queue when one is attached),
// and removes it.
func (e *Engine) evictOne(ctx AccessContext) error {
	v := e.policy.Victim(ctx)
	if v == nil {
		return ErrAllPinned
	}
	if v.Pinned() {
		return fmt.Errorf("buffer: policy %s returned pinned victim %d", e.policy.Name(), v.Meta.ID)
	}
	if _, ok := e.frames[v.Meta.ID]; !ok {
		return fmt.Errorf("buffer: policy %s returned non-resident victim %d", e.policy.Name(), v.Meta.ID)
	}
	if v.Dirty {
		if e.wb != nil && e.wb.enqueue(v.Page) {
			// Queued: a background writer will perform the physical
			// write; until then misses on this page are served from the
			// queue (read-your-writes), never from the stale store.
		} else if err := e.io.Write(v.Page); err != nil {
			return fmt.Errorf("buffer: write-back of page %d: %w", v.Meta.ID, err)
		}
		e.stats.WriteBacks++
	}
	delete(e.frames, v.Meta.ID)
	e.stats.Evictions++
	e.policy.OnEvict(v)
	// The policy has unlinked the frame and nothing above holds a *Frame
	// (callers only ever see *page.Page), so the slot recycles to the
	// free-list for the admission that triggered this eviction.
	e.arena.Free(v)
	return nil
}

// Unfix releases one pin on the page. Like Get/Put it routes through
// the tracing plumbing: sampled unfixes record a root span (Hit set
// when the page was resident), so pin-leak debugging can line pins and
// unpins up in one trace timeline.
func (e *Engine) Unfix(id page.ID) error {
	if a := e.beginRequest(tracing.KindUnfix, id, 0); a != nil {
		resident := e.Contains(id)
		err := e.unfix(id)
		a.Finish(resident, err != nil)
		return err
	}
	return e.unfix(id)
}

// unfix is the untraced pin release.
func (e *Engine) unfix(id page.ID) error {
	f, ok := e.frames[id]
	if !ok {
		return fmt.Errorf("buffer: unfix of non-resident page %d", id)
	}
	if f.pins == 0 {
		return fmt.Errorf("buffer: unfix of unpinned page %d", id)
	}
	f.pins--
	return nil
}

// MarkDirty flags a resident page for write-back on eviction or Flush.
// Sampled calls record a root span like Get/Put, so the dirtying of a
// page is visible in the same trace timeline as its later write-back.
func (e *Engine) MarkDirty(id page.ID) error {
	if a := e.beginRequest(tracing.KindMarkDirty, id, 0); a != nil {
		resident := e.Contains(id)
		err := e.markDirty(id)
		a.Finish(resident, err != nil)
		return err
	}
	return e.markDirty(id)
}

// markDirty is the untraced dirty flagging.
func (e *Engine) markDirty(id page.ID) error {
	f, ok := e.frames[id]
	if !ok {
		return fmt.Errorf("buffer: mark dirty of non-resident page %d", id)
	}
	f.Dirty = true
	return nil
}

// Put installs a new version of a page in the buffer and marks it dirty;
// it is the write path for update workloads. A non-resident page is
// admitted without a physical read (the caller provides the content); a
// resident page is replaced in place. Dirty pages are written back on
// eviction or Flush. Like reads, Puts are timed when the sink implements
// obs.LatencyRecorder. Put never reads the store, so it runs entirely
// under the latch in every composition.
func (e *Engine) Put(p *page.Page, ctx AccessContext) error {
	if e.tracer != nil && p != nil {
		if a := e.beginRequest(tracing.KindPut, p.ID, ctx.QueryID); a != nil {
			e.slot.SetActive(a)
			resident := e.Contains(p.ID)
			err := e.timedPut(p, ctx)
			e.slot.SetActive(nil)
			// A Put "hits" when it replaced a resident page in place.
			a.Finish(resident, err != nil)
			return err
		}
	}
	return e.timedPut(p, ctx)
}

// timedPut brackets put with latency timing when the sink asked for it.
func (e *Engine) timedPut(p *page.Page, ctx AccessContext) error {
	if e.timer == nil {
		return e.put(p, ctx)
	}
	start := time.Now()
	err := e.put(p, ctx)
	e.timer.RecordLatency(time.Since(start).Nanoseconds())
	return err
}

// put is the untimed write path.
func (e *Engine) put(p *page.Page, ctx AccessContext) error {
	if p == nil || p.ID == page.InvalidID {
		return errors.New("buffer: put of invalid page")
	}
	e.clock++
	now := e.clock
	e.stats.Puts++

	if f, ok := e.frames[p.ID]; ok {
		f.Page = p
		f.Meta = p.Meta
		f.Dirty = true
		if u, ok := e.policy.(Updater); ok {
			u.OnUpdate(f, now, ctx)
		} else {
			e.policy.OnHit(f, now, ctx)
		}
		f.LastUse = now
		return nil
	}

	if e.wb != nil {
		// A queued write-back of an older version is superseded by this
		// content; cancel it so the stale write can never land after ours.
		e.wb.take(p.ID)
	}
	if len(e.frames) >= e.capacity {
		if err := e.evictOne(ctx); err != nil {
			return err
		}
	}
	f := e.allocFrame()
	f.Meta = p.Meta
	f.Page = p
	f.LastUse = now
	f.Dirty = true
	e.frames[p.ID] = f
	e.policy.OnAdmit(f, now, ctx)
	return nil
}

// Flush writes back all dirty resident pages without evicting them.
// Flushes are rare and expensive, so a tracer records every one (no
// sampling), with one store.Write child span per dirty page.
func (e *Engine) Flush() error {
	if a := e.tracer.StartOp(tracing.KindFlush, e.shard); a != nil {
		e.slot.SetActive(a)
		err := e.flush()
		e.slot.SetActive(nil)
		a.Finish(false, err != nil)
		return err
	}
	return e.flush()
}

// flush is the untraced write-back loop.
func (e *Engine) flush() error {
	for _, f := range e.frames {
		if !f.Dirty {
			continue
		}
		if err := e.io.Write(f.Page); err != nil {
			return fmt.Errorf("buffer: flush page %d: %w", f.Meta.ID, err)
		}
		e.stats.WriteBacks++
		f.Dirty = false
	}
	return nil
}

// Clear evicts everything (writing back dirty pages), resets the policy
// and zeroes the statistics. The paper clears the buffer before each query
// set "in order to increase the comparability of the results" (§3).
func (e *Engine) Clear() error {
	if err := e.Flush(); err != nil {
		return err
	}
	clear(e.frames)
	// Reset the policy while the frame links are still intact (its Clear
	// walks them), then scrub and refill the arena.
	e.policy.Reset()
	e.arena.Reset()
	e.clock = 0
	e.stats = Stats{}
	return nil
}

// ResidentIDs returns the IDs of all resident pages, for tests and
// introspection. Order is unspecified.
func (e *Engine) ResidentIDs() []page.ID {
	ids := make([]page.ID, 0, len(e.frames))
	for id := range e.frames {
		ids = append(ids, id)
	}
	return ids
}
