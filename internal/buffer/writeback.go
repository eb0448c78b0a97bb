package buffer

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs/tracing"
	"repro/internal/page"
	"repro/internal/storage"
)

// DefaultWritebackQueue is the write-back queue capacity (in pages) used
// when AsyncConfig leaves it zero.
const DefaultWritebackQueue = 1024

// writeback is the background write-back machinery of an async pool:
// dirty evicted pages are enqueued under the shard lock (never
// blocking — a full queue falls back to a synchronous write, which is
// the backpressure path) and written to the store by a fixed set of
// writer goroutines.
//
// Invariants:
//
//   - pending holds the newest unwritten version of every queued page;
//     a page is in pending from enqueue until its write completed (or
//     until take cancels it because the page was re-admitted before
//     its write started).
//   - The queue writes snapshots, never the caller's page: enqueue
//     copies the evicted page under the shard lock, because the client
//     that evicted it may still hold it and change it in place (the
//     R*-tree mutates pages it got from Get, and a page can be evicted
//     between that Get and the change).
//   - At most one writer owns an entry, and take never removes or hands
//     out the snapshot of an entry being written (it returns another
//     snapshot), so the writer is the only goroutine reading it and
//     writes of one page land in version order.
//   - Re-enqueueing a page that is already pending replaces the entry
//     in place (gen bump) without a second queue slot: consecutive
//     write-backs of a hot dirty page coalesce into one physical write.
//   - A miss for a pending page must be served from pending (take),
//     never from the store — the store still holds stale bytes.
//   - drain returns only when pending is empty and no write is in
//     flight, so Flush/Clear/Close get a true durability barrier.
//
// Write errors are sticky: the first one is kept and returned by
// drain/close (the erroring page is dropped after being counted, so a
// broken store cannot wedge the queue).
type writeback struct {
	store storage.Store
	// recycle is set when the store keeps no reference to written pages
	// (see pageCopier): snapshots then go back to spare once written.
	recycle bool
	// tracer, when non-nil, records one sampled root span per physical
	// background write (KindWriteback), so Perfetto timelines show the
	// write landing after the eviction that queued it.
	tracer atomic.Pointer[tracing.Tracer]

	mu       sync.Mutex
	cond     *sync.Cond
	pending  map[page.ID]*wbEntry
	spare    []*page.Page
	inFlight int
	closed   bool
	err      error
	queue    chan page.ID
	wg       sync.WaitGroup

	workers   int
	queued    atomic.Uint64
	written   atomic.Uint64
	coalesced atomic.Uint64
	canceled  atomic.Uint64
	fallbacks atomic.Uint64
	errors    atomic.Uint64
}

// wbEntry is one pending page: a snapshot of the newest version and a
// generation counter bumped on every in-place replacement, so a writer
// can detect that a newer version arrived while it was writing the
// previous one. writing is the snapshot a writer is encoding right now
// (nil when no write is in flight); at most one writer owns an entry.
type wbEntry struct {
	page    *page.Page
	gen     uint64
	writing *page.Page
}

// pageCopier is implemented by stores whose Write copies the page out
// and keeps no reference to it once Write returns (storage.FileStore
// encodes it), so the queue may reuse a snapshot after writing it. A
// store without it (storage.MemStore keeps the pointer) gets a fresh
// snapshot per write-back.
type pageCopier interface {
	CopiesWrites() bool
}

// newWriteback starts workers writer goroutines over a queue of
// queueCap page slots.
func newWriteback(store storage.Store, workers, queueCap int) *writeback {
	if workers < 1 {
		workers = 1
	}
	if queueCap < 1 {
		queueCap = DefaultWritebackQueue
	}
	pc, ok := store.(pageCopier)
	w := &writeback{
		store:   store,
		recycle: ok && pc.CopiesWrites(),
		pending: make(map[page.ID]*wbEntry),
		queue:   make(chan page.ID, queueCap),
		workers: workers,
	}
	w.cond = sync.NewCond(&w.mu)
	w.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go w.worker()
	}
	return w
}

// setTracer attaches (nil detaches) the span tracer the writers record
// KindWriteback spans into.
func (w *writeback) setTracer(t *tracing.Tracer) { w.tracer.Store(t) }

// enqueue implements writebackEnqueuer. Called under a shard lock, so
// it must never block: a full or closed queue returns false and the
// caller writes synchronously (backpressure).
func (w *writeback) enqueue(p *page.Page) bool {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return false
	}
	if e, ok := w.pending[p.ID]; ok {
		// Already queued (or mid-write): replace in place. The writer
		// re-checks the generation after its write and redoes it.
		if e.page != e.writing {
			w.release(e.page)
		}
		e.page = w.snapshot(p)
		e.gen++
		w.mu.Unlock()
		w.coalesced.Add(1)
		return true
	}
	select {
	case w.queue <- p.ID:
	default:
		w.mu.Unlock()
		w.fallbacks.Add(1)
		return false
	}
	w.pending[p.ID] = &wbEntry{page: w.snapshot(p), gen: 1}
	w.mu.Unlock()
	w.queued.Add(1)
	return true
}

// snapshot returns a private copy of p, reusing a spare page when one
// is available. Must hold w.mu.
func (w *writeback) snapshot(p *page.Page) *page.Page {
	var s *page.Page
	if n := len(w.spare); n > 0 {
		s, w.spare = w.spare[n-1], w.spare[:n-1]
	} else {
		s = new(page.Page)
	}
	s.Meta = p.Meta
	s.Entries = append(s.Entries[:0], p.Entries...)
	return s
}

// maxSpare bounds the spare snapshots kept for reuse. One update
// operation can evict several dirty pages before a writer finishes one
// (a split or a reinsert dirties a path of nodes at once), so a spare
// per writer is too few and half the snapshots would be allocated
// afresh; a few pages (≈ 20 KiB at the paper's fan-outs) cover those
// bursts without pinning the memory of a rare large one.
const maxSpare = 8

// release hands a snapshot nobody references any more back to spare,
// if the store keeps no reference to written pages. Must hold w.mu.
func (w *writeback) release(s *page.Page) {
	if w.recycle && len(w.spare) < maxSpare {
		w.spare = append(w.spare, s)
	}
}

// take returns the pending version of id, if any — the read-your-writes
// path of the miss protocol: a miss on a page whose write-back has not
// landed yet must get the queued bytes, not the stale store.
//
// When no write of the page is in flight, take removes the entry and
// hands out the queued page itself: re-admitting it dirty cancels the
// queued write (the next eviction or flush writes the newer version).
//
// When a writer is encoding the page right now, take returns a fresh
// snapshot instead — the caller may mutate what it gets, and the writer
// is still reading the queued one — and leaves the entry pending, so the
// in-flight write completes first and a later enqueue of the page
// coalesces behind it through the writer's generation re-check instead
// of racing it to the store.
func (w *writeback) take(id page.ID) (*page.Page, bool) {
	w.mu.Lock()
	e, ok := w.pending[id]
	if !ok {
		w.mu.Unlock()
		return nil, false
	}
	p := e.page
	if e.writing != nil {
		p = w.snapshot(p)
	} else {
		delete(w.pending, id)
		if len(w.pending) == 0 && w.inFlight == 0 {
			w.cond.Broadcast()
		}
	}
	w.mu.Unlock()
	w.canceled.Add(1)
	return p, true
}

// worker drains the queue until close.
func (w *writeback) worker() {
	defer w.wg.Done()
	for id := range w.queue {
		w.write(id)
	}
}

// write performs the physical write for one dequeued page ID, redoing
// it as long as newer versions keep arriving mid-write.
func (w *writeback) write(id page.ID) {
	w.mu.Lock()
	e, ok := w.pending[id]
	if !ok || e.writing != nil {
		// Canceled by take between enqueue and dequeue, or a stale queue
		// slot of a page another writer is already writing (take removed
		// the first entry, enqueue queued the page again): that writer's
		// generation re-check picks up every newer version, and a second
		// concurrent writer could land an older version last.
		w.mu.Unlock()
		return
	}
	w.inFlight++
	for {
		p, gen := e.page, e.gen
		e.writing = p
		w.mu.Unlock()

		var err error
		if a := w.tracer.Load().StartRequest(tracing.KindWriteback, p.ID, 0, 0, 0); a != nil {
			idx := a.Start(tracing.KindStoreWrite)
			err = w.store.Write(p)
			sp := a.At(idx)
			sp.Page = p.ID
			sp.Err = err != nil
			sp.Bytes = int32(storage.PageBytes(p))
			a.End(idx)
			a.Finish(false, err != nil)
		} else {
			err = w.store.Write(p)
		}
		if err != nil {
			w.errors.Add(1)
		} else {
			w.written.Add(1)
		}

		w.mu.Lock()
		if err != nil && w.err == nil {
			w.err = err
		}
		// take never removes an entry while it is being written, so e is
		// still the pending entry of id, and p is referenced only here.
		w.release(p)
		if e.gen != gen {
			// A newer version was enqueued while we were writing the
			// previous one: write again so the store ends newest.
			continue
		}
		delete(w.pending, id)
		break
	}
	w.inFlight--
	if len(w.pending) == 0 && w.inFlight == 0 {
		w.cond.Broadcast()
	}
	w.mu.Unlock()
}

// drain blocks until every queued page has been written (or canceled by
// take) and no write is in flight, then returns the sticky error. The
// spare snapshots go too: they absorb bursts of evictions while the
// pool serves, and a drained pool (after Flush, Clear or Close) need
// not hold them. Must not be called while holding a shard lock.
func (w *writeback) drain() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.pending) > 0 || w.inFlight > 0 {
		w.cond.Wait()
	}
	w.spare = nil
	return w.err
}

// resetErr clears the sticky write error (Pool.Clear zeroes all
// accounting, including this).
func (w *writeback) resetErr() {
	w.mu.Lock()
	w.err = nil
	w.mu.Unlock()
}

// close drains the queue, stops the writer goroutines and returns the
// sticky error. After close, enqueue returns false, so the owning pool
// degrades to synchronous write-back instead of breaking.
func (w *writeback) close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return w.err
	}
	w.closed = true
	w.mu.Unlock()

	err := w.drain()
	close(w.queue)
	w.wg.Wait()
	return err
}

// WritebackMetrics is a snapshot of the write-back queue counters, for
// gauges and tests. Counter fields are cumulative over the queue's
// lifetime (they survive Clear, like the contention profiler).
type WritebackMetrics struct {
	// Workers is the number of background writer goroutines.
	Workers int
	// QueueCap and Depth are the queue capacity and its current fill.
	QueueCap, Depth int
	// Pending is the number of pages currently awaiting (or undergoing)
	// their physical write.
	Pending int
	// Queued counts pages accepted into the queue; Written counts
	// completed physical writes; Coalesced counts re-enqueues that
	// replaced a pending entry in place; Canceled counts pending pages
	// taken back because the page was re-admitted dirty (a take during
	// the page's physical write lets that write finish); Fallbacks counts
	// evictions written synchronously because the queue was full;
	// Errors counts failed physical writes.
	Queued, Written, Coalesced, Canceled, Fallbacks, Errors uint64
}

// metrics returns a point-in-time snapshot of the queue counters.
func (w *writeback) metrics() WritebackMetrics {
	w.mu.Lock()
	pending := len(w.pending)
	w.mu.Unlock()
	return WritebackMetrics{
		Workers:   w.workers,
		QueueCap:  cap(w.queue),
		Depth:     len(w.queue),
		Pending:   pending,
		Queued:    w.queued.Load(),
		Written:   w.written.Load(),
		Coalesced: w.coalesced.Load(),
		Canceled:  w.canceled.Load(),
		Fallbacks: w.fallbacks.Load(),
		Errors:    w.errors.Load(),
	}
}
