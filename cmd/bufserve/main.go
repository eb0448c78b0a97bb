// Command bufserve runs a spatial buffer as a long-lived daemon and
// serves its live metrics over HTTP. It builds one of the synthetic
// databases, records the page-reference trace of a query set, and then
// replays that trace in a loop from several worker goroutines through a
// shared buffer pool — by default an async page-hashed sharded pool
// with one shard per CPU — a steady-state workload to watch through
// /metrics, /vars and the dashboard. The pool is selected by the -pool
// composition spec (e.g. "locked", "sharded,shards=4",
// "async,shards=8,wbworkers=2"). With a sharded layout, /metrics
// additionally exposes per-shard residency and ASB gauges labeled
// shard="i".
//
// Start it and look around:
//
//	bufserve -addr :8080 -objects 20000 -set U-P -policy ASB
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/metrics | grep spatialbuf_
//	curl -N localhost:8080/events/ctraj       # SSE: live c-trajectory
//	open http://localhost:8080/               # dashboard
//
// The HTTP server (including /debug/pprof) comes up before the database
// build starts, so /healthz answers immediately; /metrics serves zeros
// until the workload is running. Event capture to disk is optional:
// -events FILE attaches a JSONL sink behind the async ring (-ring) with
// 1-in-N request sampling (-sample); ring overflow is dropped, counted
// and exported as spatialbuf_events_dropped_total rather than ever
// blocking the request path.
//
// Request-scoped tracing is on by default at 1-in-1024 sampling
// (-trace-sample, 0 disables): sampled requests record a span tree
// (Get → victim-select / asb-adapt / store.Read ...) into per-shard
// rings of -trace-buf completed traces, served as Chrome trace-event
// JSON (load in Perfetto) or JSONL at /debug/trace?n=100&format=chrome.
// Tracing also enables the shard-contention profiler: per-shard lock
// wait, queue depth and acquisition counts under
// spatialbuf_shard_lock_* on /metrics.
//
// The shadow-cache profiler is on by default: metadata-only ghost
// caches replay the live request stream against the -shadow what-if
// policies at the real capacity and against the real policy at the
// -shadow-ladder capacity multipliers (the online miss-ratio curve),
// exported as spatialbuf_shadow_* gauges, streamed at /events/shadow
// (SSE) and rendered as a dashboard panel. -shadow "" turns it off;
// -shadow-sample N trades fidelity for event-rate headroom.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/obs/shadow"
	"repro/internal/obs/tracing"
)

// splitList splits a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseLadder parses the comma-separated capacity multipliers, ignoring
// malformed entries.
func parseLadder(s string) []float64 {
	var out []float64
	for _, part := range splitList(s) {
		if v, err := strconv.ParseFloat(part, 64); err == nil && v > 0 {
			out = append(out, v)
		}
	}
	return out
}

type config struct {
	addr     string
	dbNum    int
	objects  int
	seed     int64
	set      string
	policy   string
	frac     float64
	workers  int
	pool     string
	duration time.Duration
	loops    int
	rate     int
	events   string
	sample   int
	ring     int

	traceSample int
	traceBuf    int

	shadowPolicies string
	shadowLadder   string
	shadowSample   int
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8080", "HTTP listen address for metrics, dashboard and pprof")
	flag.IntVar(&cfg.dbNum, "db", 1, "database number (1 or 2)")
	flag.IntVar(&cfg.objects, "objects", 0, "objects in the database (0 = default scale)")
	flag.Int64Var(&cfg.seed, "seed", 1, "generation seed")
	flag.StringVar(&cfg.set, "set", "U-P", "query set to replay (e.g. U-P, INT-W-33)")
	flag.StringVar(&cfg.policy, "policy", "ASB", "replacement policy: a registry name (LRU, ASB, ...) or a parameterized spec like LRU-K:4, SLRU:EA:0.25, SPATIAL:EM, ASB:A:0.3, PIN:2")
	flag.Float64Var(&cfg.frac, "frac", experiment.LargestFrac, "buffer size as a fraction of the database")
	flag.IntVar(&cfg.workers, "workers", runtime.GOMAXPROCS(0), "concurrent replay goroutines")
	flag.StringVar(&cfg.pool, "pool", "async", "pool composition spec: layout[,shards=N][,wbworkers=N][,wbqueue=N] with layout bare|locked|sharded|async (shards=0 or omitted = one per CPU)")
	flag.DurationVar(&cfg.duration, "duration", 0, "stop after this long (0 = run until signalled)")
	flag.IntVar(&cfg.loops, "loops", 0, "trace replays per worker (0 = unbounded)")
	flag.IntVar(&cfg.rate, "rate", 0, "approximate total requests/second across workers (0 = unthrottled)")
	flag.StringVar(&cfg.events, "events", "", "also capture the event stream as JSONL to this file")
	flag.IntVar(&cfg.sample, "sample", 64, "with -events: keep 1 in N request events (evictions etc. always kept)")
	flag.IntVar(&cfg.ring, "ring", live.DefaultRingCapacity, "with -events: async ring capacity in events")
	flag.IntVar(&cfg.traceSample, "trace-sample", 1024, "record a span trace for 1 in N requests, served at /debug/trace (0 = tracing off)")
	flag.IntVar(&cfg.traceBuf, "trace-buf", 256, "completed traces retained per shard ring")
	flag.StringVar(&cfg.shadowPolicies, "shadow", "LRU,SLRU 50%,ASB", "comma-separated what-if policies (names or parameterized specs like LRU-K:4) simulated by shadow caches at the real capacity (empty disables shadow profiling)")
	flag.StringVar(&cfg.shadowLadder, "shadow-ladder", "0.5,1,2,4", "capacity multipliers the real policy is shadow-simulated at (the online miss-ratio curve)")
	flag.IntVar(&cfg.shadowSample, "shadow-sample", 1, "feed the shadow bank 1 in N request events")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bufserve:", err)
		os.Exit(1)
	}
}

// poolComposition parses the -pool spec, rejecting a bare
// (single-threaded) engine shared by several workers.
func poolComposition(cfg config) (buffer.Composition, error) {
	comp, err := buffer.ParseComposition(cfg.pool)
	if err != nil {
		return buffer.Composition{}, err
	}
	if comp.Layout == buffer.LayoutBare && cfg.workers > 1 {
		return buffer.Composition{}, fmt.Errorf("-pool bare is single-threaded; use -workers 1 or a locked/sharded/async layout")
	}
	return comp, nil
}

func run(cfg config) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if cfg.duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.duration)
		defer cancel()
	}

	comp, err := poolComposition(cfg)
	if err != nil {
		return err
	}

	// The tracer is sized by the composition's shard count before the
	// pool exists so /debug/trace can be mounted before serving starts;
	// a pool that clamps to fewer shards simply leaves trailing rings
	// empty.
	var tracer *tracing.Tracer
	if cfg.traceSample > 0 {
		rings := 1
		if comp.Layout == buffer.LayoutSharded || comp.Layout == buffer.LayoutAsync {
			if rings = comp.Shards; rings < 1 {
				rings = runtime.GOMAXPROCS(0)
			}
		}
		tracer = tracing.NewTracer(cfg.traceSample, rings, cfg.traceBuf)
	}

	svc := live.NewService()
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	mux.Handle("/debug/trace", tracing.Handler(tracer))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	// Listen synchronously so a bad -addr fails fast and /healthz is
	// reachable while the (potentially long) database build runs.
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Printf("bufserve: serving metrics on http://%s/\n", ln.Addr())

	db, err := experiment.Get(cfg.dbNum, experiment.Options{Objects: cfg.objects, Seed: cfg.seed})
	if err != nil {
		return err
	}
	tr, err := db.Trace(cfg.set, cfg.seed)
	if err != nil {
		return err
	}
	fac, err := core.FactoryByName(cfg.policy)
	if err != nil {
		return err
	}
	frames := db.Frames(cfg.frac)
	pool, err := comp.Build(db.Store, fac.New, frames)
	if err != nil {
		return err
	}
	if c, ok := pool.(interface{ Close() error }); ok {
		defer c.Close()
	}
	shards := 1
	if sp, ok := pool.(interface{ Shards() int }); ok {
		shards = sp.Shards() // may have been clamped for tiny buffers
	}
	if ap, ok := pool.(*buffer.AsyncPool); ok {
		svc.AddGauge("spatialbuf_writeback_queue_depth", "Pages waiting in the background write-back queue.",
			func() float64 { return float64(ap.Writeback().Depth) })
		svc.AddGauge("spatialbuf_writeback_pending_pages", "Pages queued or mid-write in the write-back machinery.",
			func() float64 { return float64(ap.Writeback().Pending) })
		svc.AddGauge("spatialbuf_writeback_written_total", "Completed background page writes.",
			func() float64 { return float64(ap.Writeback().Written) })
		svc.AddGauge("spatialbuf_writeback_coalesced_total", "Write-backs absorbed by an already-queued entry for the same page.",
			func() float64 { return float64(ap.Writeback().Coalesced) })
		svc.AddGauge("spatialbuf_writeback_fallbacks_total", "Evictions written synchronously because the queue was full.",
			func() float64 { return float64(ap.Writeback().Fallbacks) })
		svc.AddGauge("spatialbuf_writeback_queue_capacity", "Write-back queue capacity in pages.",
			func() float64 { return float64(ap.Writeback().QueueCap) })
		svc.AddGauge("spatialbuf_writeback_canceled_total", "Queued write-backs taken back because the page was re-admitted dirty.",
			func() float64 { return float64(ap.Writeback().Canceled) })
		svc.AddGauge("spatialbuf_writeback_errors_total", "Background page writes that failed.",
			func() float64 { return float64(ap.Writeback().Errors) })
		svc.AddGauge("spatialbuf_inflight_reads", "Physical reads currently in flight across all shards (singleflight leaders).",
			func() float64 { return float64(ap.InflightReads()) })
	}
	if sp, ok := pool.(interface {
		Shards() int
		ShardLen(i int) int
		ShardPolicy(i int) buffer.Policy
	}); ok {
		var asbParts []live.ASBGauges
		for i := 0; i < sp.Shards(); i++ {
			svc.AddLabeledGauge("spatialbuf_shard_resident_pages",
				fmt.Sprintf("shard=%q", fmt.Sprint(i)),
				"Pages currently resident in this buffer shard.",
				func() float64 { return float64(sp.ShardLen(i)) })
			if asb, ok := sp.ShardPolicy(i).(live.ASBGauges); ok {
				asbParts = append(asbParts, asb)
				svc.AddShardASBGauges(i, asb)
			}
		}
		if len(asbParts) > 0 {
			// Pool-level aggregate under the standard names: candidate
			// frames and overflow pages summed across the shards.
			svc.AddASBGauges(live.SumASBGauges(asbParts...))
		}
	} else if pp, ok := pool.(interface{ Policy() buffer.Policy }); ok {
		if asb, ok := pp.Policy().(live.ASBGauges); ok {
			svc.AddASBGauges(asb)
		}
	}
	if tracer != nil {
		cont := tracing.NewContention(shards)
		pool.(interface{ SetTracer(*tracing.Tracer) }).SetTracer(tracer)
		if cp, ok := pool.(interface{ EnableContention(*tracing.Contention) }); ok {
			cp.EnableContention(cont)
		}
		svc.AddContentionGauges(cont)
		svc.AddTracerGauges(tracer)
	}
	svc.AddGauge("spatialbuf_resident_pages", "Pages currently held in buffer frames.",
		func() float64 { return float64(pool.Len()) })
	svc.AddGauge("spatialbuf_capacity_pages", "Total buffer capacity in frames.",
		func() float64 { return float64(frames) })
	svc.AddGauge("spatialbuf_workers", "Replay worker goroutines.",
		func() float64 { return float64(cfg.workers) })
	svc.AddGauge("spatialbuf_shards", "Buffer pool shards (1 = single mutex-protected pool).",
		func() float64 { return float64(shards) })

	sinks := []obs.Sink{svc.Sink()}
	var async *live.AsyncSink
	if cfg.events != "" {
		f, err := os.Create(cfg.events)
		if err != nil {
			return err
		}
		jsonl := obs.NewJSONLSinkCloser(f)
		jsonl.Mark(fmt.Sprintf("bufserve %s/%s/%.4f workers=%d", cfg.set, cfg.policy, cfg.frac, cfg.workers))
		// The ring makes the single-goroutine JSONL sink safe under many
		// producers and keeps file I/O off the request path; sampling
		// keeps the file size proportional to interesting events.
		async = live.NewAsyncSink(obs.NewSamplingSink(jsonl, cfg.sample), cfg.ring, svc.Counters.AddDropped)
		sinks = append(sinks, async)
		svc.AddAsyncSinkGauges(async)
	}
	var shadowAsync *live.AsyncSink
	if cfg.shadowPolicies != "" {
		specs := shadow.Specs(cfg.policy, frames, splitList(cfg.shadowPolicies), parseLadder(cfg.shadowLadder))
		bank, err := shadow.NewBank(specs, core.Resolver, 0)
		if err != nil {
			return err
		}
		// The bank replays every event through all its ghost caches under
		// one mutex, so it lives behind its own async ring: the request
		// path pays one non-blocking channel send (before sampling, if
		// -shadow-sample > 1), never the simulation cost.
		shadowAsync = live.NewAsyncSink(bank, cfg.ring, svc.Counters.AddDropped)
		sinks = append(sinks, obs.NewSamplingSink(shadowAsync, cfg.shadowSample))
		svc.AddShadowGauges(bank)
		fmt.Printf("bufserve: shadow profiler: %d ghost caches (policies %s at %d frames; %s ladder %s)\n",
			bank.Len(), cfg.shadowPolicies, frames, cfg.policy, cfg.shadowLadder)
	}
	pool.SetSink(obs.Tee(sinks...))

	fmt.Printf("bufserve: %s, %d-page buffer (%s, %.1f%%, pool %s, %d shards), replaying %s (%d refs) on %d workers\n",
		db.Name, frames, cfg.policy, cfg.frac*100, comp, shards, cfg.set, tr.Len(), cfg.workers)

	var wg sync.WaitGroup
	var interval time.Duration
	if cfg.rate > 0 {
		interval = time.Duration(int64(cfg.workers) * int64(time.Second) / int64(cfg.rate))
	}
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Distinct query-ID ranges per worker and per loop keep the
			// spatial locality of each replayed query intact without two
			// workers ever sharing a query ID.
			var tick *time.Ticker
			if interval > 0 {
				tick = time.NewTicker(interval)
				defer tick.Stop()
			}
			for loop := 0; cfg.loops == 0 || loop < cfg.loops; loop++ {
				base := uint64(w)<<48 | uint64(loop)<<24
				for _, ref := range tr.Refs {
					if ctx.Err() != nil {
						return
					}
					if tick != nil {
						select {
						case <-tick.C:
						case <-ctx.Done():
							return
						}
					}
					if _, err := pool.Get(ref.Page, buffer.AccessContext{QueryID: base + ref.Query}); err != nil {
						fmt.Fprintf(os.Stderr, "bufserve: worker %d: %v\n", w, err)
						return
					}
				}
			}
		}(w)
	}

	workersDone := make(chan struct{})
	go func() { wg.Wait(); close(workersDone) }()
	select {
	case <-ctx.Done():
	case <-workersDone: // finite -loops finished early
	case err := <-serveErr:
		stop()
		<-workersDone
		return fmt.Errorf("http server: %w", err)
	}
	stop()
	<-workersDone

	// Shutdown order matters: detach producers, then drain the ring,
	// then stop serving (so a final scrape still sees the full counts).
	pool.SetSink(nil)
	if async != nil {
		if err := async.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "bufserve: closing event sink: %v\n", err)
		}
		fmt.Printf("bufserve: event capture: %d delivered, %d dropped\n", async.Delivered(), async.Dropped())
	}
	if shadowAsync != nil {
		if err := shadowAsync.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "bufserve: closing shadow sink: %v\n", err)
		}
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Printf("bufserve: final counters: %s\n", svc.Counters.String())
	return nil
}
