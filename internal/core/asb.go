package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/core/intrusive"
	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/page"
)

// ASBOptions parameterize the adaptable spatial buffer. The defaults are
// the paper's settings (§4.3): an overflow buffer of 20% of the complete
// buffer, an initial candidate set of 25% of the remaining (main) part,
// adapted in steps of 1% of the main part.
type ASBOptions struct {
	// Criterion is the spatial criterion; the paper uses A.
	Criterion page.Criterion
	// OverflowFrac is the fraction of the total buffer reserved for the
	// FIFO overflow buffer.
	OverflowFrac float64
	// InitialCandFrac is the initial candidate-set size as a fraction of
	// the main part.
	InitialCandFrac float64
	// StepFrac is the adaptation step as a fraction of the main part.
	StepFrac float64
	// FreezeCand pins the candidate-set size to its initial value: the
	// §4.2 signal is still computed and emitted as OverflowPromotion
	// events, but never acted on. Diagnostic — used by ASBProbe to
	// inspect the signal distribution under a controlled candidate size.
	FreezeCand bool
}

// DefaultASBOptions returns the paper's parameter settings.
func DefaultASBOptions() ASBOptions {
	return ASBOptions{
		Criterion:       page.CritA,
		OverflowFrac:    0.20,
		InitialCandFrac: 0.25,
		StepFrac:        0.01,
	}
}

// Frame.Tag values marking which ASB region a frame lives in.
const (
	asbMain uint32 = iota
	asbOver
)

// ASB is the adaptable spatial buffer (paper §4.2), the self-tuning
// combination of LRU and a spatial page-replacement strategy:
//
//   - The buffer is split into a main part and a FIFO overflow buffer.
//   - The main part is an SLRU: victims are chosen spatially from the
//     candidate set of the `cand` least recently used pages — but instead
//     of leaving memory they are demoted into the overflow buffer.
//   - Real evictions take the overflow buffer's FIFO head.
//   - When a request hits the overflow buffer, the page is promoted back
//     into the main part, and the candidate-set size adapts: among the
//     other overflow pages, count those with a better (larger) spatial
//     criterion than the promoted page and those with a better (more
//     recent) LRU criterion. More better-spatial pages means the spatial
//     strategy misjudged the page LRU would have kept — shrink the
//     candidate set toward LRU; more better-LRU pages means grow it
//     toward the spatial strategy; equal counts leave it unchanged.
//
// Both parts together never exceed the buffer capacity, so — unlike
// LRU-K — ASB needs no state for pages that have left the buffer.
//
// Both regions are intrusive lists over the frames' embedded link words;
// a frame's region lives in Frame.Tag and its criterion is cached in
// Frame.Crit at admission, so candidate scans and the §4.2 adaptation
// votes never recompute MBR geometry and never allocate.
//
// ASB emits observability events when a sink is attached (via
// buffer.Engine.SetSink or directly through SetSink): an
// OverflowPromotion per overflow hit carrying the §4.2 signal, an Adapt
// per adaptation event (the Fig. 14 series), and an Eviction per page
// leaving the buffer.
type ASB struct {
	obs.Target
	tracing.SlotTarget

	crit     page.Criterion
	mainCap  int
	overCap  int
	initCand int
	step     int
	freeze   bool

	cand int // current candidate-set size, in [1, mainCap]

	// main is the SLRU part, front = most recently used.
	main intrusive.List[*buffer.Frame]
	// over is the overflow FIFO, front = oldest (next FIFO victim).
	over intrusive.List[*buffer.Frame]

	// lastRank is the LRU rank of the frame most recently returned by
	// Victim, consumed by the Eviction event in OnEvict; -1 when unknown.
	lastRank int

	adaptations uint64

	// gCand/gOver mirror cand and over.Len() atomically so that a
	// metrics scraper can read the live gauges without taking the
	// engine lock that serializes the policy callbacks.
	gCand atomic.Int64
	gOver atomic.Int64
}

// NewASB returns an adaptable spatial buffer for a buffer of the given
// total capacity (in frames). Zero-valued option fields take the paper's
// defaults.
func NewASB(capacity int, opts ASBOptions) *ASB {
	if capacity < 2 {
		panic(fmt.Sprintf("core: ASB needs capacity ≥ 2, got %d", capacity))
	}
	def := DefaultASBOptions()
	if opts.OverflowFrac <= 0 {
		opts.OverflowFrac = def.OverflowFrac
	}
	if opts.InitialCandFrac <= 0 {
		opts.InitialCandFrac = def.InitialCandFrac
	}
	if opts.StepFrac <= 0 {
		opts.StepFrac = def.StepFrac
	}
	overCap := int(opts.OverflowFrac*float64(capacity) + 0.5)
	if overCap < 1 {
		overCap = 1
	}
	if overCap > capacity-1 {
		overCap = capacity - 1
	}
	mainCap := capacity - overCap
	a := &ASB{
		crit:     opts.Criterion,
		mainCap:  mainCap,
		overCap:  overCap,
		initCand: clamp(int(opts.InitialCandFrac*float64(mainCap)+0.5), 1, mainCap),
		step:     clamp(int(opts.StepFrac*float64(mainCap)+0.5), 1, mainCap),
		freeze:   opts.FreezeCand,
		main:     intrusive.NewList(frameHooks),
		over:     intrusive.NewList(frameHooks),
		lastRank: -1,
	}
	a.cand = a.initCand
	a.publishGauges()
	return a
}

// publishGauges refreshes the atomic gauge mirrors; called at the end of
// every callback that can change the candidate size or the overflow
// occupancy.
func (p *ASB) publishGauges() {
	p.gCand.Store(int64(p.cand))
	p.gOver.Store(int64(p.over.Len()))
}

// LiveCandidateSize returns the current candidate-set size from the
// atomic gauge mirror; unlike CandidateSize it is safe to call from a
// scrape goroutine while another goroutine drives the buffer.
func (p *ASB) LiveCandidateSize() int { return int(p.gCand.Load()) }

// LiveOverflowLen returns the current overflow-buffer occupancy from the
// atomic gauge mirror (see LiveCandidateSize).
func (p *ASB) LiveOverflowLen() int { return int(p.gOver.Load()) }

// clamp bounds v to [lo, hi].
func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Name implements buffer.Policy.
func (p *ASB) Name() string { return "ASB" }

// CandidateSize returns the current (adapted) candidate-set size.
func (p *ASB) CandidateSize() int { return p.cand }

// MainCapacity returns the capacity of the main part in frames.
func (p *ASB) MainCapacity() int { return p.mainCap }

// OverflowCapacity returns the capacity of the overflow buffer in frames.
func (p *ASB) OverflowCapacity() int { return p.overCap }

// OverflowLen returns the number of pages currently in the overflow
// buffer.
func (p *ASB) OverflowLen() int { return p.over.Len() }

// Adaptations returns how many overflow hits adjusted the candidate size.
func (p *ASB) Adaptations() uint64 { return p.adaptations }

// OnAdmit implements buffer.Policy: new pages enter the main part at the
// MRU position; if the main part exceeds its share, its SLRU victim is
// demoted into the overflow buffer.
func (p *ASB) OnAdmit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	f.Crit = p.crit.Value(f.Meta)
	f.Tag = asbMain
	p.main.PushFront(f)
	p.rebalance()
	p.publishGauges()
}

// OnHit implements buffer.Policy. A hit in the main part refreshes
// recency. A hit in the overflow buffer adapts the candidate-set size
// (§4.2, cases 1–3) and promotes the page back into the main part.
func (p *ASB) OnHit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	if f.Tag != asbOver {
		p.main.MoveToFront(f)
		return
	}
	p.adapt(f)
	p.over.Remove(f)
	f.Tag = asbMain
	p.main.PushFront(f)
	p.rebalance()
	p.publishGauges()
}

// adapt applies the self-tuning rule on an overflow hit. f.LastUse still
// holds the promoted page's previous access time (the manager updates it
// after OnHit), so the LRU comparison sees the state that led to the
// demotion. The raw signal is emitted as an OverflowPromotion event and
// the resulting size as an Adapt event; with FreezeCand the signal is
// emitted but not acted on.
func (p *ASB) adapt(f *buffer.Frame) {
	act := p.TraceSlot().Active()
	var span int32
	if act != nil {
		span = act.Start(tracing.KindAdapt)
	}
	oldC := p.cand
	betterSpatial, betterLRU := 0, 0
	defer func() {
		if act != nil {
			sp := act.At(span)
			sp.Page = f.Meta.ID
			sp.OldC, sp.NewC = int32(oldC), int32(p.cand)
			sp.BetterSpatial, sp.BetterLRU = int32(betterSpatial), int32(betterLRU)
			act.End(span)
		}
	}()
	for q := p.over.Front(); q != nil; q = p.over.Next(q) {
		if q == f {
			continue
		}
		if q.Crit > f.Crit {
			betterSpatial++
		}
		if q.LastUse > f.LastUse {
			betterLRU++
		}
	}
	p.Sink().OverflowPromotion(obs.OverflowPromotionEvent{
		Page:          f.Meta.ID,
		BetterSpatial: betterSpatial,
		BetterLRU:     betterLRU,
	})
	if p.freeze {
		p.adaptations++
		return
	}
	// The overflow population is not a neutral sample: every page in it
	// was *selected* for a small spatial criterion by the main part's
	// victim choice, which deflates the better-spatial count relative to
	// the better-LRU count. Growing the candidate set therefore requires
	// a margin (a quarter of the overflow occupancy); shrinking is taken
	// at face value. This keeps the adaptation of §4.2 stable on
	// workloads hostile to the spatial strategy — see DESIGN.md §5.
	margin := p.over.Len() / 4
	if margin < 1 {
		margin = 1
	}
	switch {
	case betterSpatial > betterLRU:
		// The spatial strategy would have kept many pages ahead of the
		// page that was actually re-requested: LRU judged better. Shrink
		// twice as fast as growing: robustness (never losing badly to
		// LRU) is the design goal, and the deflated better-spatial count
		// means each shrink signal is strong evidence.
		p.cand = clamp(p.cand-2*p.step, 1, p.mainCap)
	case betterLRU > betterSpatial+margin:
		// LRU would have kept clearly more pages ahead of the
		// re-requested page: the spatial strategy judged better.
		p.cand = clamp(p.cand+p.step, 1, p.mainCap)
	}
	p.adaptations++
	// One Adapt event per adaptation event, even when the size is
	// unchanged: the paper counts overflow hits as adaptation events, and
	// Fig. 14 plots one sample per event.
	p.Sink().Adapt(obs.AdaptEvent{OldC: oldC, NewC: p.cand})
}

// rebalance demotes main-part SLRU victims into the overflow buffer until
// the main part is within its share. Pinned pages are never demoted.
func (p *ASB) rebalance() {
	for p.main.Len() > p.mainCap {
		v, _, _ := p.mainVictim()
		if v == nil {
			return // everything pinned; tolerate a temporarily oversized main part
		}
		p.main.Remove(v)
		v.Tag = asbOver
		p.over.PushBack(v)
	}
}

// mainVictim selects the SLRU victim of the main part: the unpinned page
// with the smallest spatial criterion among the cand least recently used;
// scanning from the LRU end keeps ties on the older page. The second
// return value is the victim's rank from the LRU end (0 = least recently
// used), or -1 if there is no victim; the third is the largest (worst,
// i.e. best-to-keep) criterion among the scanned unpinned candidates, the
// value the victim "won" against in trace spans.
func (p *ASB) mainVictim() (*buffer.Frame, int, float64) {
	var best *buffer.Frame
	var bestCrit, worstCrit float64
	bestRank := -1
	seen := 0
	for f := p.main.Back(); f != nil; f = p.main.Prev(f) {
		seen++
		if !f.Pinned() {
			c := f.Crit
			if best == nil || c < bestCrit {
				best, bestCrit, bestRank = f, c, seen-1
			}
			if c > worstCrit {
				worstCrit = c
			}
		}
		if seen >= p.cand && best != nil {
			break
		}
	}
	return best, bestRank, worstCrit
}

// Victim implements buffer.Policy: the FIFO head of the overflow buffer.
// If the overflow buffer is empty (or fully pinned) the main part's SLRU
// victim is evicted directly. On sampled requests the selection is
// recorded as a victim-select span carrying the deciding criterion
// values.
func (p *ASB) Victim(ctx buffer.AccessContext) *buffer.Frame {
	act := p.TraceSlot().Active()
	var span int32
	if act != nil {
		span = act.Start(tracing.KindVictim)
	}
	var v *buffer.Frame
	reason := obs.ReasonASBOverflow
	var worst float64
	rank := 0
	for f := p.over.Front(); f != nil; f = p.over.Next(f) {
		if !f.Pinned() {
			v = f
			break
		}
		rank++
	}
	if v == nil {
		v, rank, worst = p.mainVictim()
		reason = obs.ReasonASBMain
	}
	p.lastRank = rank
	if act != nil {
		sp := act.At(span)
		sp.Reason = reason
		sp.CritKind = p.crit.String()
		sp.Rank = int32(rank)
		sp.CritLose = worst
		sp.Slot = -1
		if v != nil {
			sp.Page = v.Meta.ID
			sp.CritWin = v.Crit
			sp.Slot = v.ArenaIndex()
		} else {
			sp.Err = true // every frame pinned
		}
		act.End(span)
	}
	return v
}

// OnEvict implements buffer.Policy.
func (p *ASB) OnEvict(f *buffer.Frame) {
	reason := obs.ReasonASBMain
	if f.Tag == asbOver {
		p.over.Remove(f)
		reason = obs.ReasonASBOverflow
	} else {
		p.main.Remove(f)
	}
	p.Sink().Eviction(obs.EvictionEvent{
		Page:      f.Meta.ID,
		Reason:    reason,
		Criterion: f.Crit,
		LRURank:   p.lastRank,
	})
	p.lastRank = -1
	p.publishGauges()
}

// Reset implements buffer.Policy: both parts are cleared and the
// candidate-set size returns to its initial value.
func (p *ASB) Reset() {
	p.main.Clear()
	p.over.Clear()
	p.cand = p.initCand
	p.adaptations = 0
	p.lastRank = -1
	p.publishGauges()
}

// OnUpdate implements buffer.Updater: the cached criterion is refreshed
// and the page treated as used. A write to an overflow page promotes it
// back to the main part WITHOUT adapting the candidate size — §4.2's
// adaptation signal is defined for re-*references*, and an update is not
// evidence about which read strategy judged the page correctly.
func (p *ASB) OnUpdate(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	f.Crit = p.crit.Value(f.Meta)
	if f.Tag != asbOver {
		p.main.MoveToFront(f)
		return
	}
	p.over.Remove(f)
	f.Tag = asbMain
	p.main.PushFront(f)
	p.rebalance()
	p.publishGauges()
}
