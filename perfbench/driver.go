package main

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/buffer"
	"repro/internal/dataset"
	"repro/internal/page"
	"repro/internal/storage"
)

// client is one closed-loop caller: it issues its next operation only
// after the previous one returned.
type client struct {
	id uint64
	// pool is what the client's queries read through: the shared pool,
	// or in a traced run the client's own timing wrapper around it.
	pool   buffer.Pool
	traced *tracedPool
	// queries is the client's share of a read workload's query list.
	queries []readQuery
	next    int
	issued  uint64
	tally
}

// tally is what a client counted in one phase.
type tally struct {
	ops, failed, results uint64
	opNs                 int64
	// samples records operation latencies in nanoseconds while it has
	// capacity left.
	samples []uint32
}

// op runs the client's next operation. It reports the number of
// results, whether the operation succeeded with the expected result,
// and false in more when the pre-generated input is exhausted.
func (c *client) op(inst *instance) (results int, ok, more bool) {
	c.issued++
	if inst.upd != nil {
		return inst.upd.do(inst, c)
	}
	q := &c.queries[c.next]
	c.next++
	if c.next == len(c.queries) {
		c.next = 0
	}
	n, sum := 0, uint64(0)
	ctx := buffer.AccessContext{QueryID: c.issued*uint64(len(inst.clients)) + c.id}
	err := inst.tree.Search(c.pool, ctx, q.rect, func(e page.Entry) bool {
		n++
		sum += resultSum(e.ObjID)
		return true
	})
	return n, err == nil && n == q.count && sum == q.sum, true
}

// do runs the next operation of the update mix.
func (s *updateState) do(inst *instance, c *client) (results int, ok, more bool) {
	if s.next == len(s.ops) {
		return 0, false, false
	}
	op := &s.ops[s.next]
	s.next++
	ctx := buffer.AccessContext{QueryID: uint64(s.next)}
	if err := inst.tree.UseBufferContext(ctx); err != nil {
		return 0, false, true
	}
	switch op.kind {
	case opQuery:
		err := inst.tree.Search(c.pool, ctx, op.rect, func(page.Entry) bool {
			results++
			return true
		})
		return results, err == nil, true
	case opInsert:
		if err := inst.tree.Insert(op.arg, op.rect); err != nil {
			return 0, false, true
		}
		s.live = append(s.live, dataset.Object{ID: op.arg, MBR: op.rect})
		return 0, true, true
	default:
		i := int(op.arg % uint64(len(s.live)))
		o := s.live[i]
		s.live[i] = s.live[len(s.live)-1]
		s.live = s.live[:len(s.live)-1]
		s.deleted = append(s.deleted, o)
		found, err := inst.tree.Delete(o.ID, o.MBR)
		return 0, err == nil && found, true
	}
}

// run drives the client until the deadline, maxOps operations, or the
// end of its input. With samples allocated it records every
// operation's latency.
func (c *client) run(inst *instance, deadline time.Time, maxOps uint64) {
	for c.ops < maxOps {
		start := time.Now()
		if !start.Before(deadline) {
			return
		}
		n, ok, more := c.op(inst)
		if !more {
			return
		}
		d := time.Since(start).Nanoseconds()
		c.ops++
		c.results += uint64(n)
		c.opNs += d
		if !ok {
			c.failed++
		}
		if len(c.samples) < cap(c.samples) {
			c.samples = append(c.samples, uint32(min(d, math.MaxUint32)))
		}
	}
}

// drive runs every client concurrently and returns the wall time until
// the last one stopped.
func (inst *instance) drive(deadline time.Time, maxOps uint64) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range inst.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(inst, deadline, maxOps)
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// warmup runs the untimed warm-up pass: one pass over each client's
// query share, or the update mix's warm-up prefix.
func (inst *instance) warmup() {
	limit := uint64(warmupUpdates)
	if inst.upd == nil {
		limit = uint64(len(inst.clients[0].queries))
	}
	inst.warmupDur = inst.drive(time.Now().Add(time.Hour), limit)
	for _, c := range inst.clients {
		inst.warmupOps += c.ops
		inst.warmupFailed += c.failed
		c.tally = tally{}
		if c.traced != nil {
			*c.traced = tracedPool{Pool: c.traced.Pool}
		}
	}
}

// snapshot holds the cumulative counters read at a phase boundary.
type snapshot struct {
	stats   buffer.Stats
	store   storage.Stats
	wb      buffer.WritebackMetrics
	alloc   uint64
	policy  policyClock
	reads   uint64
	writes  uint64
	readNs  int64
	writeNs int64
	lockNs  int64
}

func (inst *instance) snapshot() snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := snapshot{stats: inst.pool.Stats(), store: inst.store.Stats(), alloc: ms.TotalAlloc}
	if ap, ok := inst.pool.(interface {
		Writeback() buffer.WritebackMetrics
	}); ok {
		s.wb = ap.Writeback()
	}
	for _, c := range inst.clocks {
		s.policy.add(c)
	}
	if ts := inst.tstore; ts != nil {
		s.reads, s.writes = ts.reads.Load(), ts.writes.Load()
		s.readNs, s.writeNs = ts.readNs.Load(), ts.writeNs.Load()
	}
	if inst.contention != nil {
		s.lockNs = inst.contention.TotalWaitNanos()
	}
	return s
}

// windows is the number of equal windows a timed phase is cut into.
// The end-to-end rate and latencies are medians over the windows, so a
// burst of interference on the shared machine moves one window, not
// the reported value.
const windows = 10

// window is what one window of the timed phase measured.
type window struct {
	ops      uint64
	elapsed  time.Duration
	p50, p99 float64 // latency quantiles in nanoseconds
}

// phase is what one timed phase measured.
type phase struct {
	elapsed               time.Duration
	windows               []window
	ops, failed, results  uint64
	opNs                  int64
	samples               int
	flushErr              error
	gets, puts            uint64
	getNs, putNs, flushNs int64
	before, after         snapshot
}

// measure runs the timed phase: the clients for the given duration (or
// maxOps operations each), then for the update mix the final Flush,
// which counts into the last window.
func (inst *instance) measure(d time.Duration, maxOps uint64) phase {
	perClient := maxOps
	if perClient == math.MaxUint64 {
		// Size the latency record from the warm-up rate, with headroom.
		rate := float64(inst.warmupOps) / float64(len(inst.clients)) / inst.warmupDur.Seconds()
		perClient = uint64(rate*d.Seconds()*1.5) + 1024
	}
	for _, c := range inst.clients {
		c.samples = make([]uint32, 0, min(perClient, 1<<24))
	}
	// ends[i][k] is how many latencies client k had recorded when window
	// i ended.
	ends := make([][]int, windows)
	for i := range ends {
		ends[i] = make([]int, len(inst.clients))
	}
	opMarks := make([]uint64, len(inst.clients))
	p := phase{windows: make([]window, windows)}
	p.before = inst.snapshot()
	start := time.Now()
	for i := range p.windows {
		wstart := time.Now()
		inst.drive(start.Add(d*time.Duration(i+1)/windows), maxOps)
		if i == windows-1 && inst.upd != nil {
			var flush interface{ Flush() error } = inst.pool
			if tp := inst.clients[0].traced; tp != nil {
				flush = tp
			}
			p.flushErr = flush.Flush()
		}
		w := &p.windows[i]
		w.elapsed = time.Since(wstart)
		for k, c := range inst.clients {
			w.ops += c.ops - opMarks[k]
			opMarks[k], ends[i][k] = c.ops, len(c.samples)
		}
	}
	p.elapsed = time.Since(start)
	p.after = inst.snapshot()
	// The window quantiles are computed after the timed phase, so that
	// neither their time nor their memory counts in it.
	var buf []uint32
	for i := range p.windows {
		buf = buf[:0]
		for k, c := range inst.clients {
			from := 0
			if i > 0 {
				from = ends[i-1][k]
			}
			buf = append(buf, c.samples[from:ends[i][k]]...)
		}
		if len(buf) > 0 {
			slices.Sort(buf)
			p.windows[i].p50, p.windows[i].p99 = quantile(buf, 0.50), quantile(buf, 0.99)
		}
	}
	for _, c := range inst.clients {
		p.ops += c.ops
		p.failed += c.failed
		p.results += c.results
		p.opNs += c.opNs
		p.samples += len(c.samples)
		c.samples = nil
		if tp := c.traced; tp != nil {
			p.gets += tp.gets
			p.puts += tp.puts
			p.getNs += tp.getNs
			p.putNs += tp.putNs
			p.flushNs += tp.flushNs
		}
	}
	return p
}

// windowMedian returns the median of f over the windows that completed
// an operation.
func (p phase) windowMedian(f func(window) float64) float64 {
	var v []float64
	for _, w := range p.windows {
		if w.ops > 0 {
			v = append(v, f(w))
		}
	}
	return median(v)
}
