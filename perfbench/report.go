package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/buffer"
	"repro/internal/dataset"
	"repro/internal/page"
	"repro/internal/rtree"
)

// setupRuns is how many times an untraced run sets the workload up;
// setup_s is the median.
const setupRuns = 3

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output, printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Not printed: what a report and the tests need besides the metrics.
	inst  *instance
	phase phase
}

// count adds a finished instance's operations and checks to the result.
func (r *result) count(inst *instance, p phase, checks, checkFailures uint64) {
	r.Attempted += inst.warmupOps + p.ops + checks
	r.Failed += inst.warmupFailed + p.failed + checkFailures
	r.Correct = r.Failed == 0
}

// failedShare is the share of attempted operations and checks that
// failed.
func (r *result) failedShare() float64 { return float64(r.Failed) / float64(r.Attempted) }

// runUntraced sets the workload up setupRuns times, measures the last
// instance for d and reports the end-to-end metrics.
func runUntraced(w workload, o options, d time.Duration) (*result, error) {
	var setups []float64
	var inst *instance
	for i := 0; i < setupRuns; i++ {
		if inst != nil {
			if err := inst.teardown(); err != nil {
				return nil, err
			}
		}
		var err error
		if inst, err = setup(w, o); err != nil {
			return nil, err
		}
		setups = append(setups, inst.setupDur.Seconds())
	}
	r, err := measureAndCheck(inst, d, math.MaxUint64)
	if err != nil {
		return nil, errors.Join(err, inst.teardown())
	}
	p := r.phase
	ops := float64(p.ops)
	reads := float64(p.after.store.Reads - p.before.store.Reads)
	writes := float64(p.after.store.Writes - p.before.store.Writes)
	r.Metrics = map[string]metric{
		"ops_per_s":          {p.windowMedian(func(w window) float64 { return float64(w.ops) / w.elapsed.Seconds() }), "1/s"},
		"op_p50_us":          {p.windowMedian(func(w window) float64 { return w.p50 }) / 1e3, "us"},
		"op_p99_us":          {p.windowMedian(func(w window) float64 { return w.p99 }) / 1e3, "us"},
		"disk_reads_per_op":  {reads / ops, "reads/op"},
		"disk_io_per_op":     {(reads + writes) / ops, "pages/op"},
		"alloc_bytes_per_op": {float64(p.after.alloc-p.before.alloc) / ops, "B/op"},
		"setup_s":            {median(setups), "s"},
	}
	// The live heap is the program's state: drop the benchmark's inputs,
	// expected results and model of the tree first. The second GC empties
	// the sync.Pool victim caches the first one leaves.
	inst.upd = nil
	for _, c := range inst.clients {
		c.queries = nil
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.Metrics["live_heap_mb"] = metric{float64(ms.HeapAlloc) / (1 << 20), "MB"}
	return r, inst.teardown()
}

// runTraced measures the workload untraced and then traced, d/2 each
// on a fresh set-up, and reports the per-layer metrics of the traced
// half.
func runTraced(w workload, o options, d time.Duration) (*result, error) {
	o.traced = false
	plain, err := setup(w, o)
	if err != nil {
		return nil, err
	}
	u, err := measureAndCheck(plain, d/2, math.MaxUint64)
	if err := errors.Join(err, plain.teardown()); err != nil {
		return nil, err
	}
	o.traced = true
	inst, err := setup(w, o)
	if err != nil {
		return nil, err
	}
	r, err := measureAndCheck(inst, d/2, math.MaxUint64)
	if err != nil {
		return nil, errors.Join(err, inst.teardown())
	}
	r.Attempted += u.Attempted
	r.Failed += u.Failed
	r.Correct = r.Failed == 0
	untraced := float64(u.phase.ops) / u.phase.elapsed.Seconds()
	r.Metrics = layerMetrics(r.phase, len(inst.clients), untraced, r)
	return r, inst.teardown()
}

// measureAndCheck runs the timed phase and the end checks.
func measureAndCheck(inst *instance, d time.Duration, maxOps uint64) (*result, error) {
	p := inst.measure(d, maxOps)
	if p.ops == 0 {
		return nil, fmt.Errorf("%s: no operation completed", inst.w.name)
	}
	r := &result{inst: inst, phase: p}
	checks, failures := inst.endChecks(p)
	r.count(inst, p, checks, failures)
	return r, nil
}

// probeSample is how many deleted and how many live objects the end
// checks of the update mix look up.
const probeSample = 256

// endChecks verifies the update mix's final tree, read back from the
// file after the timed phase's Flush: that the Flush succeeded, the
// tree's structure, its object count against the benchmark's model,
// and that sampled deleted objects are gone while sampled live ones are
// found. It returns the number of checks and of failed ones.
func (inst *instance) endChecks(p phase) (checks, failures uint64) {
	if inst.upd == nil {
		return 0, 0
	}
	check := func(ok bool) {
		checks++
		if !ok {
			failures++
		}
	}
	check(p.flushErr == nil)
	inst.tree.UnbufferedIO()
	check(inst.tree.Validate() == nil)
	check(inst.tree.NumObjects() == len(inst.upd.live))
	direct := rtree.StoreReader{Store: inst.fileDB}
	probe := func(objs []dataset.Object, want bool) bool {
		step := max(1, len(objs)/probeSample)
		for i := 0; i < len(objs); i += step {
			o := objs[i]
			found := false
			err := inst.tree.Search(direct, buffer.AccessContext{}, o.MBR, func(e page.Entry) bool {
				found = e.ObjID == o.ID
				return !found
			})
			if err != nil || found != want {
				return false
			}
		}
		return true
	}
	check(probe(inst.upd.deleted, false))
	check(probe(inst.upd.live, true))
	return checks, failures
}

// layerMetrics derives the per-layer metrics of a traced phase.
//
// Self times: rtree is operation time minus the time of its pool calls;
// buffer is pool-call time (Get, Put and the final Flush) minus the
// policy callbacks, store reads and lock waits inside it; core, storage
// reads and lock wait are measured directly. Store reads happen only
// inside Get, so each child lies within its parent. Store writes are
// left in buffer time: the background write-back writes run outside any
// client's call and are reported as storage.write_busy_share instead.
func layerMetrics(p phase, clients int, untracedOpsPerS float64, r *result) map[string]metric {
	ops := float64(p.ops)
	calls := float64(p.gets + p.puts)
	pol := p.after.policy.since(p.before.policy)
	reads := float64(p.after.reads - p.before.reads)
	writes := float64(p.after.writes - p.before.writes)
	readNs := p.after.readNs - p.before.readNs
	writeNs := p.after.writeNs - p.before.writeNs
	lockNs := p.after.lockNs - p.before.lockNs
	st := statsSince(p.before.stats, p.after.stats)
	fallbacks := float64(p.after.wb.Fallbacks - p.before.wb.Fallbacks)
	enqueues := fallbacks + float64(p.after.wb.Queued-p.before.wb.Queued) + float64(p.after.wb.Coalesced-p.before.wb.Coalesced)

	rtreeSelf := p.opNs - p.getNs - p.putNs
	bufferSelf := p.getNs + p.putNs + p.flushNs - pol.ns - readNs - lockNs
	wall := float64(p.elapsed.Nanoseconds()) * float64(clients)
	accounted := float64(max(rtreeSelf, 0) + max(bufferSelf, 0) + lockNs + pol.ns + readNs)
	tracedOpsPerS := ops / p.elapsed.Seconds()

	return map[string]metric{
		"rtree.self_us_per_op":            {float64(rtreeSelf) / ops / 1e3, "us"},
		"rtree.gets_per_op":               {float64(p.gets) / ops, "calls/op"},
		"rtree.puts_per_op":               {float64(p.puts) / ops, "calls/op"},
		"rtree.results_per_op":            {float64(p.results) / ops, "objects/op"},
		"buffer.get_ns":                   {ratio(float64(p.getNs), float64(p.gets)), "ns"},
		"buffer.put_ns":                   {ratio(float64(p.putNs), float64(p.puts)), "ns"},
		"buffer.self_ns_per_call":         {ratio(float64(bufferSelf), calls), "ns"},
		"buffer.lock_wait_ns_per_call":    {ratio(float64(lockNs), calls), "ns"},
		"buffer.hit_ratio":                {ratio(float64(st.Hits), float64(st.Requests)), "ratio"},
		"buffer.evictions_per_op":         {float64(st.Evictions) / ops, "count/op"},
		"buffer.coalesced_share":          {ratio(float64(st.Coalesced), float64(st.Misses)), "ratio"},
		"buffer.writebacks_per_op":        {float64(st.WriteBacks) / ops, "count/op"},
		"buffer.writeback_fallback_share": {ratio(fallbacks, enqueues), "ratio"},
		"core.policy_ns_per_call":         {ratio(float64(pol.ns), float64(pol.calls)), "ns"},
		"core.on_hit_ns":                  {ratio(float64(pol.hitNs), float64(pol.hits)), "ns"},
		"core.victim_ns":                  {ratio(float64(pol.victimNs), float64(pol.victims)), "ns"},
		"core.victims_per_op":             {float64(pol.victims) / ops, "count/op"},
		"storage.read_ns":                 {ratio(float64(readNs), reads), "ns"},
		"storage.write_ns":                {ratio(float64(writeNs), writes), "ns"},
		"storage.write_busy_share":        {float64(writeNs) / float64(p.elapsed.Nanoseconds()), "ratio"},
		"storage.writes_per_op":           {writes / ops, "count/op"},
		"bench.trace_overhead_share":      {1 - tracedOpsPerS/untracedOpsPerS, "ratio"},
		"bench.layer_gap_share":           {math.Abs(wall-accounted) / wall, "ratio"},
		"bench.failed_op_share":           {r.failedShare(), "ratio"},
	}
}

// statsSince returns the buffer counters accumulated from before to
// after.
func statsSince(before, after buffer.Stats) buffer.Stats {
	return buffer.Stats{
		Requests:   after.Requests - before.Requests,
		Hits:       after.Hits - before.Hits,
		Misses:     after.Misses - before.Misses,
		Evictions:  after.Evictions - before.Evictions,
		Puts:       after.Puts - before.Puts,
		WriteBacks: after.WriteBacks - before.WriteBacks,
		Coalesced:  after.Coalesced - before.Coalesced,
	}
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile (nearest rank) of sorted samples.
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)])
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
