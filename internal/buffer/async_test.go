package buffer

import (
	"bytes"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
)

// gatedStore blocks every Read until the gate is closed, so a test can
// pile an arbitrary number of concurrent misses onto one in-flight read
// before letting it complete. fail, when set, makes gated reads error
// after the gate opens.
type gatedStore struct {
	storage.Store
	gate  chan struct{}
	fail  atomic.Bool
	reads atomic.Int32
}

var errGatedRead = errors.New("gated read failed")

func (s *gatedStore) Read(id page.ID) (*page.Page, error) {
	<-s.gate
	s.reads.Add(1)
	if s.fail.Load() {
		return nil, errGatedRead
	}
	return s.Store.Read(id)
}

// blockWriteStore blocks every Write until the gate is closed, keeping
// write-back queue entries pending for as long as a test needs them.
// started, when non-nil, receives each page as its Write begins; tests
// buffer it for every write they cause, so announcing a write never
// blocks a writer. After the gate opens, Write stores a decoded copy of
// the page, as a FileStore would: encoding reads every entry, so the
// race detector sees a caller changing a page under an in-flight write.
// It logs the ObjID of the first entry, so tests can check the order in
// which versions landed.
type blockWriteStore struct {
	storage.Store
	gate    chan struct{}
	started chan *page.Page

	mu     sync.Mutex
	landed []uint64
}

func (s *blockWriteStore) Write(p *page.Page) error {
	if s.started != nil {
		s.started <- p
	}
	<-s.gate
	var buf [storage.PageSize]byte
	if err := storage.EncodePage(p, buf[:]); err != nil {
		return err
	}
	q, err := storage.DecodePage(buf[:])
	if err != nil {
		return err
	}
	if len(q.Entries) > 0 {
		s.mu.Lock()
		s.landed = append(s.landed, q.Entries[0].ObjID)
		s.mu.Unlock()
	}
	return s.Store.Write(q)
}

// CopiesWrites reports that Write keeps no reference to the page, so
// the write-back queue recycles its snapshots over this store.
func (s *blockWriteStore) CopiesWrites() bool { return true }

// landedVersions returns the first-entry ObjIDs of completed writes, in
// landing order.
func (s *blockWriteStore) landedVersions() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.landed...)
}

// countingStore counts Reads per page on top of a base store.
type countingStore struct {
	storage.Store
	reads atomic.Int64
}

func (s *countingStore) Read(id page.ID) (*page.Page, error) {
	p, err := s.Store.Read(id)
	if err == nil {
		s.reads.Add(1)
	}
	return p, err
}

// testPage builds a data page with a distinctive ObjID, for asserting
// which version of a page a read returned.
func testPage(id page.ID, obj uint64) *page.Page {
	p := page.New(id, page.TypeData, 0, 1)
	p.Append(page.Entry{MBR: geom.NewRect(0, 0, 1, 1), ObjID: obj})
	p.Recompute()
	return p
}

// newAsyncPool builds the async composition: the async layer over a
// router of the given shard count.
func newAsyncPool(store storage.Store, factory PolicyFactory, capacity, shards int, cfg AsyncConfig) (*AsyncPool, error) {
	r, err := NewRouter(store, factory, capacity, shards)
	if err != nil {
		return nil, err
	}
	return Async(r, cfg), nil
}

// waitForRequests polls until the pool has accounted n requests — i.e.
// the leader is mid-read and every other goroutine is registered as a
// coalesced waiter — or the deadline passes.
func waitForRequests(t *testing.T, p Pool, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Requests < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d accounted requests (have %d)", n, p.Stats().Requests)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAsyncSingleflightOneRead is the coalescing contract: N goroutines
// missing the same page perform exactly one physical read, all share
// its result, and the accounting identity DiskReads = Misses −
// Coalesced holds exactly.
func TestAsyncSingleflightOneRead(t *testing.T) {
	gs := &gatedStore{Store: newStore(t, 8), gate: make(chan struct{})}
	sp, err := newAsyncPool(gs, testFactory, 4, 1, AsyncConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()

	const n = 16
	var wg sync.WaitGroup
	pages := make([]*page.Page, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pages[i], errs[i] = sp.Get(1, AccessContext{QueryID: uint64(i)})
		}(i)
	}
	waitForRequests(t, sp, n)
	close(gs.gate)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if pages[i] == nil || pages[i].ID != 1 {
			t.Fatalf("request %d returned wrong page: %+v", i, pages[i])
		}
	}
	if got := gs.reads.Load(); got != 1 {
		t.Errorf("store reads = %d, want exactly 1", got)
	}
	st := sp.Stats()
	if st.Requests != n || st.Misses != n || st.Hits != 0 {
		t.Errorf("stats = %+v, want %d misses", st, n)
	}
	if st.Coalesced != n-1 {
		t.Errorf("coalesced = %d, want %d", st.Coalesced, n-1)
	}
	if st.DiskReads() != 1 {
		t.Errorf("DiskReads = %d, want 1", st.DiskReads())
	}
	if sp.Len() != 1 {
		t.Errorf("resident pages = %d, want 1", sp.Len())
	}
}

// TestAsyncSingleflightSharedError checks the error path: a failed read
// is delivered to the leader and every coalesced waiter, leaves no
// residue (nothing resident, no stuck in-flight entry), and the next
// miss for the page starts a fresh read that can succeed.
func TestAsyncSingleflightSharedError(t *testing.T) {
	gs := &gatedStore{Store: newStore(t, 8), gate: make(chan struct{})}
	gs.fail.Store(true)
	sp, err := newAsyncPool(gs, testFactory, 4, 1, AsyncConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = sp.Get(3, AccessContext{})
		}(i)
	}
	waitForRequests(t, sp, n)
	close(gs.gate)
	wg.Wait()

	for i := 0; i < n; i++ {
		if !errors.Is(errs[i], errGatedRead) {
			t.Fatalf("request %d: err = %v, want %v", i, errs[i], errGatedRead)
		}
	}
	if sp.Len() != 0 {
		t.Errorf("resident pages = %d after failed read, want 0", sp.Len())
	}

	// No residue: with the failure cleared, the same page loads fine.
	gs.fail.Store(false)
	p, err := sp.Get(3, AccessContext{})
	if err != nil || p == nil || p.ID != 3 {
		t.Fatalf("get after failure: page %+v, err %v", p, err)
	}
}

// TestAsyncFixCoalesce pins through the coalesced path: N concurrent
// Fixes of one absent page share one read, and every caller holds a
// real pin afterwards (each Unfix releases exactly one).
func TestAsyncFixCoalesce(t *testing.T) {
	gs := &gatedStore{Store: newStore(t, 8), gate: make(chan struct{})}
	sp, err := newAsyncPool(gs, testFactory, 4, 1, AsyncConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = sp.Fix(5, AccessContext{})
		}(i)
	}
	waitForRequests(t, sp, n)
	close(gs.gate)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("fix %d: %v", i, errs[i])
		}
	}
	if got := gs.reads.Load(); got != 1 {
		t.Errorf("store reads = %d, want exactly 1", got)
	}
	// Exactly n pins: n Unfixes succeed, one more fails.
	for i := 0; i < n; i++ {
		if err := sp.Unfix(5); err != nil {
			t.Fatalf("unfix %d: %v", i, err)
		}
	}
	if err := sp.Unfix(5); err == nil {
		t.Error("unfix beyond pin count should fail")
	}
}

// TestAsyncSingleShardSeedEquivalence pins the tentpole's compatibility
// promise: a single-threaded read-only replay through a 1-shard async
// pool is stat-for-stat — and event-for-event — identical to the seed
// bare engine over the same reference string.
func TestAsyncSingleShardSeedEquivalence(t *testing.T) {
	const numPages, capacity, requests = 64, 16, 4096

	seedStore := newStore(t, numPages)
	seed, err := NewEngine(seedStore, newTestPolicy(), capacity)
	if err != nil {
		t.Fatal(err)
	}
	var seedLog bytes.Buffer
	seedSink := obs.NewJSONLSink(&seedLog)
	seed.SetSink(seedSink)

	asyncStore := newStore(t, numPages)
	sp, err := newAsyncPool(asyncStore, testFactory, capacity, 1, AsyncConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	var asyncLog bytes.Buffer
	asyncSink := obs.NewJSONLSink(&asyncLog)
	sp.SetSink(asyncSink)

	// A deterministic LCG reference string with rereference locality.
	replay := func(get func(page.ID, AccessContext) (*page.Page, error)) {
		state := uint64(1)
		for i := 0; i < requests; i++ {
			state = state*6364136223846793005 + 1442695040888963407
			id := page.ID(state>>33%numPages + 1)
			if _, err := get(id, AccessContext{QueryID: uint64(i) / 8}); err != nil {
				t.Fatal(err)
			}
		}
	}
	replay(seed.Get)
	replay(sp.Get)

	if ss, as := seed.Stats(), sp.Stats(); ss != as {
		t.Errorf("stats diverge:\n seed  %+v\n async %+v", ss, as)
	}
	if sr, ar := seedStore.Stats().Reads, asyncStore.Stats().Reads; sr != ar {
		t.Errorf("physical reads diverge: seed %d, async %d", sr, ar)
	}
	seedIDs, asyncIDs := seed.ResidentIDs(), sp.ResidentIDs()
	sort.Slice(seedIDs, func(i, j int) bool { return seedIDs[i] < seedIDs[j] })
	if len(seedIDs) != len(asyncIDs) {
		t.Fatalf("resident sets diverge: %d vs %d pages", len(seedIDs), len(asyncIDs))
	}
	for i := range seedIDs {
		if seedIDs[i] != asyncIDs[i] {
			t.Fatalf("resident sets diverge at %d: %d vs %d", i, seedIDs[i], asyncIDs[i])
		}
	}
	if err := seedSink.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := asyncSink.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seedLog.Bytes(), asyncLog.Bytes()) {
		t.Error("event streams diverge between bare engine and 1-shard async pool")
	}
}

// TestAsyncConcurrentGetStress hammers a 4-shard async pool with
// concurrent readers under -race and checks the global accounting
// identity for Get-only workloads: physical reads == Misses −
// Coalesced.
func TestAsyncConcurrentGetStress(t *testing.T) {
	const numPages, capacity, workers, perWorker = 256, 64, 8, 1500
	cs := &countingStore{Store: newStore(t, numPages)}
	sp, err := newAsyncPool(cs, testFactory, capacity, 4, AsyncConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			state := uint64(w)*2862933555777941757 + 3037000493
			for i := 0; i < perWorker; i++ {
				state = state*6364136223846793005 + 1442695040888963407
				id := page.ID(state>>33%numPages + 1)
				if _, err := sp.Get(id, AccessContext{QueryID: uint64(i)}); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	st := sp.Stats()
	if st.Requests != workers*perWorker {
		t.Errorf("requests = %d, want %d", st.Requests, workers*perWorker)
	}
	if st.Hits+st.Misses != st.Requests {
		t.Errorf("hits %d + misses %d != requests %d", st.Hits, st.Misses, st.Requests)
	}
	if got, want := uint64(cs.reads.Load()), st.DiskReads(); got != want {
		t.Errorf("physical reads = %d, want Misses-Coalesced = %d", got, want)
	}
}

// TestAsyncWritebackReadYourWrites evicts a dirty page into the
// write-back queue (with the physical write blocked), then misses on
// it: the pool must serve the queued version — never the stale store —
// count the miss as coalesced, and keep the page dirty so the canceled
// write eventually happens.
func TestAsyncWritebackReadYourWrites(t *testing.T) {
	bw := &blockWriteStore{Store: newStore(t, 32), gate: make(chan struct{})}
	sp, err := newAsyncPool(bw, testFactory, 2, 1, AsyncConfig{WritebackWorkers: 1, WritebackQueue: 4})
	if err != nil {
		t.Fatal(err)
	}

	ctx := AccessContext{}
	if _, err := sp.Get(1, ctx); err != nil {
		t.Fatal(err)
	}
	if err := sp.Put(testPage(9, 999), ctx); err != nil {
		t.Fatal(err)
	}
	// FIFO: Get(2) evicts clean page 1; Get(3) evicts dirty page 9 into
	// the queue, where the gated store keeps it pending.
	if _, err := sp.Get(2, ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Get(3, ctx); err != nil {
		t.Fatal(err)
	}

	p, err := sp.Get(9, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Entries) != 1 || p.Entries[0].ObjID != 999 {
		t.Fatalf("got stale page 9 content: %+v", p)
	}
	st := sp.Stats()
	if st.Coalesced != 1 {
		t.Errorf("coalesced = %d, want 1 (the queue-served miss)", st.Coalesced)
	}
	if m := sp.Writeback(); m.Canceled != 1 {
		t.Errorf("canceled write-backs = %d, want 1", m.Canceled)
	}

	close(bw.gate)
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	// The re-admitted page stayed dirty, so Close's flush made it
	// durable despite the canceled queued write.
	got, err := bw.Store.Read(9)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 1 || got.Entries[0].ObjID != 999 {
		t.Fatalf("store holds stale page 9 after Close: %+v", got)
	}
}

// TestAsyncFlushDrainsWriteback dirties a batch of pages, evicts them
// into the write-back queue, and checks that Flush is a durability
// barrier: afterwards the store holds every new version and the queue
// is empty.
func TestAsyncFlushDrainsWriteback(t *testing.T) {
	st := newStore(t, 32)
	sp, err := newAsyncPool(st, testFactory, 4, 1, AsyncConfig{WritebackWorkers: 2, WritebackQueue: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()

	ctx := AccessContext{}
	for id := page.ID(1); id <= 8; id++ {
		if err := sp.Put(testPage(id, 1000+uint64(id)), ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Evict the dirty pages by pulling in clean ones.
	for id := page.ID(20); id <= 27; id++ {
		if _, err := sp.Get(id, ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.Flush(); err != nil {
		t.Fatal(err)
	}

	for id := page.ID(1); id <= 8; id++ {
		p, err := st.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Entries) != 1 || p.Entries[0].ObjID != 1000+uint64(id) {
			t.Fatalf("page %d not durable after Flush: %+v", id, p)
		}
	}
	m := sp.Writeback()
	if m.Pending != 0 || m.Depth != 0 {
		t.Errorf("queue not drained after Flush: %+v", m)
	}
	if m.Queued == 0 || m.Written == 0 {
		t.Errorf("expected background write-backs, got %+v", m)
	}
}

// TestWritebackCoalesceAndClose unit-tests the queue itself:
// re-enqueueing a pending page replaces it in place (one physical
// write, newest version wins), close drains, and a closed queue refuses
// work so the pool degrades to synchronous writes.
func TestWritebackCoalesceAndClose(t *testing.T) {
	bw := &blockWriteStore{Store: newStore(t, 4), gate: make(chan struct{})}
	w := newWriteback(bw, 1, 4)

	if !w.enqueue(testPage(1, 100)) {
		t.Fatal("first enqueue refused")
	}
	if !w.enqueue(testPage(1, 200)) {
		t.Fatal("coalescing enqueue refused")
	}
	m := w.metrics()
	if m.Queued != 1 || m.Coalesced != 1 {
		t.Fatalf("metrics after coalesce: %+v", m)
	}

	close(bw.gate)
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	p, err := bw.Store.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Entries[0].ObjID != 200 {
		t.Fatalf("store holds stale version after coalesced write: %+v", p)
	}
	if w.enqueue(testPage(1, 300)) {
		t.Error("closed queue accepted work")
	}
}

// failWriteStore fails every Write.
type failWriteStore struct {
	storage.Store
}

var errFailedWrite = errors.New("write failed")

func (s *failWriteStore) Write(*page.Page) error { return errFailedWrite }

// TestWritebackStickyError checks that a failed background write
// surfaces at the next drain (Flush barrier), and that Clear resets the
// sticky error along with the rest of the accounting.
func TestWritebackStickyError(t *testing.T) {
	fs := &failWriteStore{Store: newStore(t, 8)}
	sp, err := newAsyncPool(fs, testFactory, 2, 1, AsyncConfig{WritebackWorkers: 1, WritebackQueue: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()

	ctx := AccessContext{}
	if err := sp.Put(testPage(1, 7), ctx); err != nil {
		t.Fatal(err)
	}
	// Evict the dirty page; the background write fails.
	if _, err := sp.Get(2, ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Get(3, ctx); err != nil {
		t.Fatal(err)
	}
	if err := sp.Flush(); !errors.Is(err, errFailedWrite) {
		t.Fatalf("Flush err = %v, want %v", err, errFailedWrite)
	}
	if m := sp.Writeback(); m.Errors == 0 {
		t.Errorf("error counter not bumped: %+v", m)
	}
	// Clear resets the sticky error, so the next Flush succeeds.
	if err := sp.Clear(); !errors.Is(err, errFailedWrite) {
		t.Fatalf("Clear err = %v, want the sticky %v", err, errFailedWrite)
	}
	if err := sp.Clear(); err != nil {
		t.Fatalf("Clear after reset: %v", err)
	}
	if err := sp.Flush(); err != nil {
		t.Fatalf("Flush after reset: %v", err)
	}
}

// TestWritebackBackpressure fills a tiny queue with blocked writes and
// checks the fallback contract: refused enqueues are written
// synchronously by the evicting request, so no dirty page is ever
// dropped.
func TestWritebackBackpressure(t *testing.T) {
	base := newStore(t, 64)
	bw := &blockWriteStore{Store: base, gate: make(chan struct{})}
	w := newWriteback(bw, 1, 1)

	accepted := 0
	for id := page.ID(1); id <= 3; id++ {
		if w.enqueue(testPage(id, uint64(id))) {
			accepted++
		}
	}
	// Capacity 1 plus at most one page already claimed by the (blocked)
	// worker: at least one of the three enqueues must have been refused.
	if accepted == 3 {
		t.Fatal("tiny queue accepted every enqueue; backpressure never engaged")
	}
	if m := w.metrics(); m.Fallbacks != uint64(3-accepted) {
		t.Errorf("fallbacks = %d, want %d", m.Fallbacks, 3-accepted)
	}
	close(bw.gate)
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncTakeDuringWrite misses on a page while a background writer
// is encoding it, then changes and evicts the page again. The miss must
// get a private copy (the caller mutates it while the writer still
// reads the queued page), and the newer version's write must land after
// the in-flight one, never before it. Run under -race: in the second
// round the caller mutates its copy while the writer encodes the
// original, so handing out the queued page itself is a reported race.
func TestAsyncTakeDuringWrite(t *testing.T) {
	for _, releaseFirst := range []bool{false, true} {
		bw := &blockWriteStore{
			Store:   newStore(t, 32),
			gate:    make(chan struct{}),
			started: make(chan *page.Page, 8),
		}
		comp := Composition{Layout: LayoutAsync, Shards: 1, WritebackWorkers: 2, WritebackQueue: 4}
		pool, err := comp.Build(bw, testFactory, 2)
		if err != nil {
			t.Fatal(err)
		}
		ctx := AccessContext{}
		get := func(id page.ID) *page.Page {
			t.Helper()
			p, err := pool.Get(id, ctx)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}

		// FIFO over two frames: the two Gets evict dirty page 9 into the
		// queue, and a writer picks it up and blocks in the store.
		if err := pool.Put(testPage(9, 1), ctx); err != nil {
			t.Fatal(err)
		}
		get(1)
		get(2)
		writing := <-bw.started

		p := get(9)
		if p == writing {
			t.Fatal("miss during the write got the page the writer is encoding, want a private copy")
		}
		if p.Entries[0].ObjID != 1 {
			t.Fatalf("miss during the write got version %d, want 1", p.Entries[0].ObjID)
		}
		if releaseFirst {
			close(bw.gate)
		}
		// Mutate in place, as the R*-tree does, and write the page back.
		p.Entries[0].ObjID = 2
		p.Recompute()
		if err := pool.Put(p, ctx); err != nil {
			t.Fatal(err)
		}
		get(1)
		get(2)
		if !releaseFirst {
			// Version 2 was evicted while version 1 is still in flight:
			// it must wait behind that write rather than race it.
			close(bw.gate)
		}
		if err := pool.(interface{ Close() error }).Close(); err != nil {
			t.Fatal(err)
		}

		got := bw.landedVersions()
		if len(got) == 0 || got[len(got)-1] != 2 {
			t.Fatalf("releaseFirst=%v: writes landed as versions %v, want version 2 last", releaseFirst, got)
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				t.Fatalf("releaseFirst=%v: writes landed as versions %v, an older version after a newer one", releaseFirst, got)
			}
		}
		stored, err := bw.Store.Read(9)
		if err != nil {
			t.Fatal(err)
		}
		if stored.Entries[0].ObjID != 2 {
			t.Fatalf("releaseFirst=%v: store holds version %d, want 2", releaseFirst, stored.Entries[0].ObjID)
		}
	}
}

// TestWritebackOneWriterPerPage leaves a stale queue slot behind — take
// cancels a queued page, enqueue queues it again — so two writers can
// dequeue the same page ID. Only one of them may write it: a second
// concurrent writer could land an older version after a newer one.
func TestWritebackOneWriterPerPage(t *testing.T) {
	bw := &blockWriteStore{
		Store:   newStore(t, 8),
		gate:    make(chan struct{}),
		started: make(chan *page.Page, 8),
	}
	w := newWriteback(bw, 2, 8)
	// Occupy both writers with pages 1 and 2.
	for id := page.ID(1); id <= 2; id++ {
		if !w.enqueue(testPage(id, uint64(id))) {
			t.Fatal("enqueue refused")
		}
	}
	<-bw.started
	<-bw.started

	if !w.enqueue(testPage(3, 30)) {
		t.Fatal("enqueue refused")
	}
	if p, ok := w.take(3); !ok || p.Entries[0].ObjID != 30 {
		t.Fatalf("take(3) = %v, %v; want the queued version 30", p, ok)
	}
	if !w.enqueue(testPage(3, 31)) {
		t.Fatal("enqueue refused")
	}
	close(bw.gate)
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	if m := w.metrics(); m.Written != 3 {
		t.Fatalf("written = %d, want 3 (page 3 once, by one writer): %+v", m.Written, m)
	}
	stored, err := bw.Store.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if stored.Entries[0].ObjID != 31 {
		t.Fatalf("store holds version %d of page 3, want 31", stored.Entries[0].ObjID)
	}
}

// TestAsyncEvictedPageChangedByHolder changes a page the caller still
// holds after the pool evicted it dirty into the write-back queue — the
// R*-tree does this when a node it read is evicted by later reads of
// the same operation. The background write must encode the queue's own
// snapshot, never the caller's page (-race reports the shared read),
// and the caller's newer version must land after the in-flight one.
func TestAsyncEvictedPageChangedByHolder(t *testing.T) {
	bw := &blockWriteStore{
		Store:   newStore(t, 32),
		gate:    make(chan struct{}),
		started: make(chan *page.Page, 8),
	}
	comp := Composition{Layout: LayoutAsync, Shards: 1, WritebackWorkers: 2, WritebackQueue: 4}
	pool, err := comp.Build(bw, testFactory, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := AccessContext{}
	held := testPage(9, 1)
	if err := pool.Put(held, ctx); err != nil {
		t.Fatal(err)
	}
	for id := page.ID(1); id <= 2; id++ {
		if _, err := pool.Get(id, ctx); err != nil {
			t.Fatal(err)
		}
	}
	if writing := <-bw.started; writing == held {
		t.Fatal("the writer got the caller's page, want the queue's snapshot")
	}
	close(bw.gate)
	held.Entries[0].ObjID = 2
	held.Recompute()
	if err := pool.Put(held, ctx); err != nil {
		t.Fatal(err)
	}
	if err := pool.(interface{ Close() error }).Close(); err != nil {
		t.Fatal(err)
	}
	if got := bw.landedVersions(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("writes landed as versions %v, want [1 2]", got)
	}
}
