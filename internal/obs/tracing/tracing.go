// Package tracing is the request-scoped complement to the aggregate
// event stream of package obs: a sampling span recorder that captures
// single buffer requests end-to-end — which shard the page hashed to,
// whether it hit, how long the request waited for the shard lock, which
// victim the replacement policy picked (and with what criterion values),
// how the ASB candidate size adapted, and what physical I/O resulted —
// as a tree of timed spans.
//
// Aggregates answer "how is the buffer doing"; spans answer "why did
// *this* request take 2 ms" and "what exactly did the policy decide".
// The paper's adaptation rule (§4.2) acts on individual overflow
// promotions, so debugging it needs per-request history, not counters.
//
// The overhead contract mirrors package obs: producers hold a *Tracer
// that may be nil (tracing disabled — the hot path pays one pointer
// test), and with tracing enabled the unsampled path pays one atomic
// increment and no allocations. Only sampled requests (1 in N) build a
// span tree, from a sync.Pool, and publish it into a fixed-size
// lock-free per-shard ring of completed traces. Export the rings with
// WriteChromeTrace (chrome://tracing / Perfetto) or WriteSpansJSONL,
// or serve them over HTTP with Handler.
package tracing

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/page"
)

// SpanKind identifies what a span measures. Root spans are the buffer
// entry points (Get/Put/Fix/Flush); the rest appear as children.
type SpanKind uint8

const (
	// KindGet is a read-path buffer request (root span).
	KindGet SpanKind = iota
	// KindPut is a write-path buffer request (root span).
	KindPut
	// KindFix is a pinning read-path request (root span).
	KindFix
	// KindFlush is a whole-buffer flush (root span; always sampled).
	KindFlush
	// KindVictim is a policy victim selection, emitted by the policy
	// with the criterion values that decided it.
	KindVictim
	// KindAdapt is an ASB candidate-size adaptation on an overflow hit.
	KindAdapt
	// KindStoreRead is a physical page read through the store.
	KindStoreRead
	// KindStoreWrite is a physical page write (write-back or flush).
	KindStoreWrite
	// KindUnfix is a pin release (root span): cheap and memory-only, but
	// traced so pin leaks line up with the Fix that created them.
	KindUnfix
	// KindMarkDirty is a dirty flagging (root span).
	KindMarkDirty
	// KindIOWait covers the part of a miss spent outside the shard lock:
	// either this request's own store read or the wait for another
	// request's coalesced read. Its extent inside the root span shows
	// exactly how much of the miss ran without blocking the shard.
	KindIOWait
	// KindWriteback is one background write-back of a dirty evicted
	// page, recorded by the writer goroutine (root span).
	KindWriteback
)

// String implements fmt.Stringer; the names double as Chrome trace
// event names.
func (k SpanKind) String() string {
	switch k {
	case KindGet:
		return "Get"
	case KindPut:
		return "Put"
	case KindFix:
		return "Fix"
	case KindFlush:
		return "Flush"
	case KindVictim:
		return "victim-select"
	case KindAdapt:
		return "asb-adapt"
	case KindStoreRead:
		return "store.Read"
	case KindStoreWrite:
		return "store.Write"
	case KindUnfix:
		return "Unfix"
	case KindMarkDirty:
		return "MarkDirty"
	case KindIOWait:
		return "io-wait"
	case KindWriteback:
		return "writeback"
	default:
		return "unknown"
	}
}

// Span is one timed node of a request trace. It is a fixed-size value:
// the string fields only ever hold package-level constants (eviction
// reasons, criterion names), so recording a span never allocates beyond
// the trace's span slice. A span's identity within its trace is its
// index in the trace slice; Parent is the index of the enclosing span
// (-1 for the root).
type Span struct {
	Trace  uint64 // trace ID, unique per tracer
	Parent int32  // index of the parent span in the trace; -1 = root
	Kind   SpanKind
	Shard  int32 // pool shard the span belongs to (0 when unsharded)
	Start  int64 // ns since the tracer's epoch
	Dur    int64 // ns

	// Request payload (root spans; Page also set on store spans).
	Page    page.ID
	QueryID uint64
	Hit     bool
	Err     bool
	// LockWait is the time the request spent acquiring its shard lock
	// before the root span started, as measured by the enclosing
	// concurrent pool (0 when unmeasured or uncontended).
	LockWait int64

	// Victim-selection payload (KindVictim).
	Reason   string  // eviction reason constant (obs.Reason*)
	CritKind string  // spatial criterion kind ("A", "EA", …)
	CritWin  float64 // criterion value of the selected victim
	CritLose float64 // worst (largest) criterion among scanned candidates
	Rank     int32   // victim's LRU rank, -1 when not applicable
	Slot     int32   // arena index of the victim's frame, -1 off-arena/none

	// Adaptation payload (KindAdapt).
	OldC, NewC               int32
	BetterSpatial, BetterLRU int32

	// Store I/O payload (KindStoreRead/KindStoreWrite).
	Bytes int32
}

// MaxSpansPerTrace bounds one trace's span count; Start calls beyond the
// bound are dropped (the trace stays valid, just truncated). A buffer
// request produces a handful of spans; only a Flush over a huge dirty
// set approaches the bound.
const MaxSpansPerTrace = 512

// Tracer is the sampling span recorder shared by a buffer stack. One
// Tracer serves any number of producer goroutines: the sampling counter
// and trace IDs are atomic, every Active trace is owned by exactly one
// request (which runs under its shard's lock), and completed traces
// land in per-shard single-producer rings.
type Tracer struct {
	every  uint64
	seen   atomic.Uint64
	nextID atomic.Uint64
	epoch  time.Time
	rings  []traceRing
	pool   sync.Pool
}

// traceRing is a fixed-size lock-free ring of completed traces for one
// shard. The shard's requests are serialized by the shard lock, so
// there is normally one producer; the atomic position counter also
// tolerates concurrent producers sharing a ring (as the experiment
// harness's parallel replay workers do on ring 0). Readers load slot
// pointers atomically and never block producers.
type traceRing struct {
	pos   atomic.Uint64
	slots []atomic.Pointer[[]Span]
}

// NewTracer returns a tracer sampling one in every requests (every ≤ 1
// records all of them), keeping up to perShard completed traces per
// shard ring. shards must cover the largest shard index the attached
// pools will use; unsharded managers record into ring 0.
func NewTracer(every, shards, perShard int) *Tracer {
	if every < 1 {
		every = 1
	}
	if shards < 1 {
		shards = 1
	}
	if perShard < 1 {
		perShard = 64
	}
	t := &Tracer{every: uint64(every), epoch: time.Now(), rings: make([]traceRing, shards)}
	for i := range t.rings {
		t.rings[i].slots = make([]atomic.Pointer[[]Span], perShard)
	}
	t.pool.New = func() any {
		return &Active{spans: make([]Span, 0, 16), open: make([]int32, 0, 4)}
	}
	return t
}

// SampleEvery returns the sampling interval (1 = every request).
func (t *Tracer) SampleEvery() int { return int(t.every) }

// Seen returns how many requests were offered to the sampler.
func (t *Tracer) Seen() uint64 { return t.seen.Load() }

// now returns nanoseconds since the tracer's epoch.
func (t *Tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// StartRequest begins a request trace if this request is sampled,
// returning nil otherwise (and on a nil tracer). The unsampled path is
// one atomic increment, no allocations. The returned Active must be
// closed with Finish.
func (t *Tracer) StartRequest(kind SpanKind, id page.ID, query uint64, shard int, lockWait int64) *Active {
	if t == nil {
		return nil
	}
	if (t.seen.Add(1)-1)%t.every != 0 {
		return nil
	}
	return t.start(kind, id, query, shard, lockWait)
}

// StartOp begins an always-sampled trace for a rare, non-request
// operation (Flush). Returns nil on a nil tracer.
func (t *Tracer) StartOp(kind SpanKind, shard int) *Active {
	if t == nil {
		return nil
	}
	return t.start(kind, 0, 0, shard, 0)
}

func (t *Tracer) start(kind SpanKind, id page.ID, query uint64, shard int, lockWait int64) *Active {
	a := t.pool.Get().(*Active)
	a.t = t
	a.shard = shard
	a.spans = a.spans[:0]
	a.open = a.open[:0]
	a.spans = append(a.spans, Span{
		Trace:    t.nextID.Add(1),
		Parent:   -1,
		Kind:     kind,
		Shard:    int32(shard),
		Start:    t.now(),
		Page:     id,
		QueryID:  query,
		LockWait: lockWait,
	})
	a.open = append(a.open, 0)
	return a
}

// Traces returns up to n completed traces, oldest first (n ≤ 0 returns
// everything retained). Traces are gathered from all shard rings and
// ordered by root start time; the newest n are kept. Safe to call while
// producers are recording.
func (t *Tracer) Traces(n int) [][]Span {
	if t == nil {
		return nil
	}
	var out [][]Span
	for i := range t.rings {
		for j := range t.rings[i].slots {
			if rec := t.rings[i].slots[j].Load(); rec != nil {
				out = append(out, *rec)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0].Start < out[j][0].Start })
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// Active is one in-flight sampled trace. It is owned by the request
// being traced and must not be shared across goroutines; the buffer
// stack guarantees that (a request runs under its shard's lock from
// StartRequest to Finish).
type Active struct {
	t       *Tracer
	shard   int
	spans   []Span
	open    []int32
	scratch Span // sink for At() of dropped spans
}

// Start opens a child span of the innermost open span and returns its
// index. Returns -1 (a no-op index) when the trace is full or a is nil.
func (a *Active) Start(kind SpanKind) int32 {
	if a == nil || len(a.spans) >= MaxSpansPerTrace {
		return -1
	}
	parent := int32(-1)
	if n := len(a.open); n > 0 {
		parent = a.open[n-1]
	}
	idx := int32(len(a.spans))
	a.spans = append(a.spans, Span{
		Trace:  a.spans[0].Trace,
		Parent: parent,
		Kind:   kind,
		Shard:  int32(a.shard),
		Start:  a.t.now(),
	})
	a.open = append(a.open, idx)
	return idx
}

// At returns the span at idx for payload writes between Start and End.
// The pointer is only valid until the next Start. A dropped index (-1)
// returns a scratch span so callers need no branch.
func (a *Active) At(idx int32) *Span {
	if idx < 0 || int(idx) >= len(a.spans) {
		return &a.scratch
	}
	return &a.spans[idx]
}

// End closes the span at idx, setting its duration.
func (a *Active) End(idx int32) {
	if a == nil || idx < 0 || int(idx) >= len(a.spans) {
		return
	}
	sp := &a.spans[idx]
	sp.Dur = a.t.now() - sp.Start
	if n := len(a.open); n > 0 && a.open[n-1] == idx {
		a.open = a.open[:n-1]
	}
}

// Finish closes the root span with the request outcome, publishes the
// completed trace into its shard's ring, and recycles the Active. The
// Active must not be used afterwards.
func (a *Active) Finish(hit, errored bool) {
	if a == nil {
		return
	}
	root := &a.spans[0]
	root.Hit = hit
	root.Err = errored
	root.Dur = a.t.now() - root.Start
	rec := make([]Span, len(a.spans))
	copy(rec, a.spans)
	r := &a.t.rings[a.shard%len(a.t.rings)]
	slot := (r.pos.Add(1) - 1) % uint64(len(r.slots))
	r.slots[slot].Store(&rec)
	a.t.pool.Put(a)
}

// Slot is the per-manager handoff point between the request path and
// the components below it (policy, store wrapper): the manager parks
// the current Active here for the duration of the request, and the
// policy's victim selection or the store's I/O attach child spans to
// whatever trace is active — nil for unsampled requests. All accesses
// happen under the manager's serialization (its own single thread or
// its shard's lock), so Slot needs no synchronization of its own.
type Slot struct{ a *Active }

// SetActive parks (or, with nil, clears) the in-flight trace.
func (s *Slot) SetActive(a *Active) { s.a = a }

// Active returns the in-flight trace, or nil when the current request
// is not sampled (or s itself is nil).
func (s *Slot) Active() *Active {
	if s == nil {
		return nil
	}
	return s.a
}

// SlotSetter is implemented by span producers below the engine
// (policies) that accept a trace slot; buffer.Engine.SetTracer
// forwards its slot through this interface, mirroring obs.SinkSetter.
type SlotSetter interface {
	SetTraceSlot(*Slot)
}

// SlotTarget is an embeddable slot holder: embedding it makes a policy
// a SlotSetter. TraceSlot may return nil (tracing never attached);
// Slot.Active and Active.Start are nil-safe, so producers can emit
// unconditionally.
type SlotTarget struct {
	slot *Slot
}

// SetTraceSlot implements SlotSetter.
func (t *SlotTarget) SetTraceSlot(s *Slot) { t.slot = s }

// TraceSlot returns the attached slot, or nil.
func (t *SlotTarget) TraceSlot() *Slot { return t.slot }
