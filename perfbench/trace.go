package main

import (
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/page"
	"repro/internal/storage"
)

// The traced run wraps the public interface at each layer boundary of
// the query path and times every call crossing it:
//
//	rtree ──Get/Put──▶ buffer ──callbacks──▶ core (policy)
//	                     └──────Read/Write──▶ storage
//
// Lock wait inside the buffer comes from the pool's own contention
// profiler (tracing.Contention). A layer's self time is the time of
// the calls into it minus the time of the calls it makes into the
// layers below (see layerMetrics).

// tracedPool times the rtree→buffer boundary for one client. Each
// client owns its wrapper, so the counters need no synchronization;
// they are read only after the client has finished.
type tracedPool struct {
	buffer.Pool
	gets, puts   uint64
	getNs, putNs int64
	flushNs      int64
}

func (p *tracedPool) Get(id page.ID, ctx buffer.AccessContext) (*page.Page, error) {
	start := time.Now()
	pg, err := p.Pool.Get(id, ctx)
	p.getNs += time.Since(start).Nanoseconds()
	p.gets++
	return pg, err
}

func (p *tracedPool) Put(pg *page.Page, ctx buffer.AccessContext) error {
	start := time.Now()
	err := p.Pool.Put(pg, ctx)
	p.putNs += time.Since(start).Nanoseconds()
	p.puts++
	return err
}

func (p *tracedPool) Flush() error {
	start := time.Now()
	err := p.Pool.Flush()
	p.flushNs += time.Since(start).Nanoseconds()
	return err
}

// policyClock accumulates the time a policy instance spends in each
// callback. The engine drives a policy under its shard's
// serialization, and the benchmark reads the clocks only between
// phases, so plain fields suffice.
type policyClock struct {
	calls, hits, victims uint64
	ns, hitNs, victimNs  int64
}

// add accumulates o into c.
func (c *policyClock) add(o *policyClock) {
	c.calls += o.calls
	c.hits += o.hits
	c.victims += o.victims
	c.ns += o.ns
	c.hitNs += o.hitNs
	c.victimNs += o.victimNs
}

// since returns the time and calls accumulated from before to c.
func (c policyClock) since(before policyClock) policyClock {
	return policyClock{
		calls: c.calls - before.calls, hits: c.hits - before.hits, victims: c.victims - before.victims,
		ns: c.ns - before.ns, hitNs: c.hitNs - before.hitNs, victimNs: c.victimNs - before.victimNs,
	}
}

// tracedPolicy times the buffer→core boundary.
type tracedPolicy struct {
	inner buffer.Policy
	c     *policyClock
}

// traceFactory wraps every policy the factory builds and registers the
// instance's clock with the collector.
func traceFactory(f buffer.PolicyFactory, clocks *[]*policyClock) buffer.PolicyFactory {
	return func(capacity int) buffer.Policy {
		c := &policyClock{}
		*clocks = append(*clocks, c)
		return &tracedPolicy{inner: f(capacity), c: c}
	}
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) OnAdmit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	start := time.Now()
	p.inner.OnAdmit(f, now, ctx)
	p.c.ns += time.Since(start).Nanoseconds()
	p.c.calls++
}

func (p *tracedPolicy) OnHit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	start := time.Now()
	p.inner.OnHit(f, now, ctx)
	d := time.Since(start).Nanoseconds()
	p.c.ns += d
	p.c.hitNs += d
	p.c.calls++
	p.c.hits++
}

// OnUpdate forwards to the inner policy's buffer.Updater and falls back
// to OnHit when it has none — the engine's own rule for a Put that
// finds its page resident. The wrapper always implements Updater, so
// without the fallback a policy lacking OnUpdate would miss the access.
func (p *tracedPolicy) OnUpdate(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	start := time.Now()
	if u, ok := p.inner.(buffer.Updater); ok {
		u.OnUpdate(f, now, ctx)
	} else {
		p.inner.OnHit(f, now, ctx)
	}
	p.c.ns += time.Since(start).Nanoseconds()
	p.c.calls++
}

func (p *tracedPolicy) Victim(ctx buffer.AccessContext) *buffer.Frame {
	start := time.Now()
	v := p.inner.Victim(ctx)
	d := time.Since(start).Nanoseconds()
	p.c.ns += d
	p.c.victimNs += d
	p.c.calls++
	p.c.victims++
	return v
}

func (p *tracedPolicy) OnEvict(f *buffer.Frame) {
	start := time.Now()
	p.inner.OnEvict(f)
	p.c.ns += time.Since(start).Nanoseconds()
	p.c.calls++
}

func (p *tracedPolicy) Reset() { p.inner.Reset() }

// tracedStore times the buffer→storage boundary. Clients and background
// write-back workers call it concurrently, hence the atomics.
type tracedStore struct {
	storage.Store
	reads, writes   atomic.Uint64
	readNs, writeNs atomic.Int64
}

func (s *tracedStore) Read(id page.ID) (*page.Page, error) {
	start := time.Now()
	p, err := s.Store.Read(id)
	s.readNs.Add(time.Since(start).Nanoseconds())
	s.reads.Add(1)
	return p, err
}

func (s *tracedStore) Write(p *page.Page) error {
	start := time.Now()
	err := s.Store.Write(p)
	s.writeNs.Add(time.Since(start).Nanoseconds())
	s.writes.Add(1)
	return err
}
