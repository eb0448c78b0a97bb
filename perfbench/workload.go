package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiment"
	"repro/internal/geom"
	"repro/internal/obs/tracing"
	"repro/internal/page"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// workload is one input set of the benchmark. README.md records why
// each was chosen and which layers it loads.
type workload struct {
	name string
	// querySet names the paper's query set a read workload cycles
	// through; empty for the update mix.
	querySet string
	// frac is the buffer size as a share of the tree's pages.
	frac        float64
	composition string
	clients     int
	// file serves the tree from a FileStore instead of the MemStore.
	file bool
	// updates runs the window-query/insert/delete mix.
	updates bool
}

var workloads = []workload{
	{name: "points-hot", querySet: "S-P", frac: 0.5, composition: "locked", clients: 2},
	{name: "windows-cold-file", querySet: "U-W-100", frac: experiment.LargestFrac, composition: "async,shards=2", clients: 2, file: true},
	{name: "updates-file", frac: experiment.LargestFrac, composition: "async,shards=2", clients: 1, file: true, updates: true},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

const (
	// policyName is the paper's adaptable spatial buffer.
	policyName = "ASB"
	// dbObjects sizes DB1 at 1,361 pages: large enough that 4.7% of it
	// is a cold buffer, small enough to build in seconds.
	dbObjects = 40_000
	// dbSeed fixes the database to the one the paper reproduction uses
	// (experiment.Options' default); the run's seed draws the requests.
	// A seeded database would move its cluster layout, and with it the
	// hit ratio of every workload, from run to run.
	dbSeed = 1
	// readQueries is the length of a read workload's query list; the
	// clients cycle through their shares of it.
	readQueries = 20_000
	// warmupUpdates is the length of the update mix's warm-up prefix.
	warmupUpdates = 5_000
	// updatesPerSecond bounds the update operations generated per
	// second of measurement; a client that exhausts them ends the
	// timed phase early.
	updatesPerSecond = 40_000
)

// options parameterize one benchmark run.
type options struct {
	// seed draws the queries and the update mix.
	seed    int64
	objects int
	// dir holds the FileStore of the file workloads.
	dir    string
	traced bool
	// clients overrides the workload's client count when positive.
	clients int
	// updateOps is the number of timed update operations generated.
	updateOps int
	// wrapStore, when set, wraps the store under the pool (tests inject
	// faults with it).
	wrapStore func(storage.Store) storage.Store
}

// readQuery is one window or point query with the result the MemStore
// tree gives for it.
type readQuery struct {
	rect  geom.Rect
	count int
	sum   uint64
}

// Update operation kinds.
const (
	opQuery uint8 = iota
	opInsert
	opDelete
)

// updateOp is one pre-generated operation of the update mix: a query
// window, or an inserted object (arg is its ID), or a delete (arg picks
// the victim among the objects live at that point).
type updateOp struct {
	kind uint8
	rect geom.Rect
	arg  uint64
}

// updateState is the update mix's input and its model of the tree's
// content, used by the end checks.
type updateState struct {
	ops     []updateOp
	next    int
	live    []dataset.Object
	deleted []dataset.Object
}

// instance is one set-up workload: the program's state plus the inputs
// and the instrumentation of a run.
type instance struct {
	w        workload
	tree     *rtree.Tree
	pool     buffer.Pool
	store    storage.Store
	fileDB   *storage.FileStore
	filePath string
	pages    int
	frames   int
	// db keeps a read workload's database alive for the run: it is part
	// of the program state live_heap_mb measures.
	db       *experiment.Database
	clients  []*client
	upd      *updateState
	setupDur time.Duration
	// Instrumentation of a traced instance.
	tstore     *tracedStore
	clocks     []*policyClock
	contention *tracing.Contention
	// warmup counts the warm-up operations and their failures.
	warmupOps, warmupFailed uint64
	warmupDur               time.Duration
}

// resultSum folds object IDs into an order-independent checksum.
func resultSum(id uint64) uint64 {
	id += 0x9e3779b97f4a7c15
	id = (id ^ (id >> 30)) * 0xbf58476d1ce4e5b9
	id = (id ^ (id >> 27)) * 0x94d049bb133111eb
	return id ^ (id >> 31)
}

// setup builds the workload's state, warms the pool up and returns the
// instance ready for the timed phase. Everything it does counts as
// set-up time.
func setup(w workload, o options) (*instance, error) {
	start := time.Now()
	inst := &instance{w: w}
	if o.clients > 0 {
		inst.w.clients = o.clients
	}
	if w.updates && inst.w.clients != 1 {
		return nil, fmt.Errorf("%s: rtree.Tree is not safe for concurrent mutation; want 1 client", w.name)
	}
	var err error
	if w.updates {
		err = inst.setupUpdates(o)
	} else {
		err = inst.setupReads(o)
	}
	if err != nil {
		return nil, errors.Join(err, inst.teardown())
	}
	inst.warmup()
	inst.setupDur = time.Since(start)
	return inst, nil
}

// setupReads builds DB1, records every query's expected result over the
// MemStore tree, and (for file workloads) copies the tree page for page
// into a FileStore.
func (inst *instance) setupReads(o options) error {
	db, err := experiment.Build(1, experiment.Options{Objects: o.objects, Seed: dbSeed})
	if err != nil {
		return err
	}
	inst.db, inst.tree, inst.pages = db, db.Tree, db.Stats.TotalPages()
	set, err := db.QuerySet(inst.w.querySet, readQueries, o.seed)
	if err != nil {
		return err
	}
	queries := make([]readQuery, len(set.Queries))
	direct := rtree.StoreReader{Store: db.Store}
	for i, q := range set.Queries {
		rq := readQuery{rect: q.Rect}
		err := db.Tree.Search(direct, buffer.AccessContext{QueryID: q.ID}, q.Rect, func(e page.Entry) bool {
			rq.count++
			rq.sum += resultSum(e.ObjID)
			return true
		})
		if err != nil {
			return fmt.Errorf("expected result of query %d: %w", q.ID, err)
		}
		queries[i] = rq
	}
	var store storage.Store = db.Store
	if inst.w.file {
		fs, err := inst.createFile(o)
		if err != nil {
			return err
		}
		for id := page.ID(1); int(id) <= db.Store.NumPages(); id++ {
			if got := fs.Allocate(); got != id {
				return fmt.Errorf("copy to file store: allocated page %d, want %d", got, id)
			}
			p, err := db.Store.Read(id)
			if err != nil {
				return err
			}
			if err := fs.Write(p); err != nil {
				return err
			}
		}
		store = fs
	}
	db.Store.ResetStats()
	if err := inst.buildPool(store, o); err != nil {
		return err
	}
	n := inst.w.clients
	for c := 0; c < n; c++ {
		inst.clients[c].queries = queries[c*len(queries)/n : (c+1)*len(queries)/n]
	}
	return nil
}

// setupUpdates builds the R*-tree by insertion onto a FileStore through
// a load pool that holds the whole tree, flushes it, and generates the
// update mix.
func (inst *instance) setupUpdates(o options) error {
	// DB1's objects, as experiment.Build draws them.
	gen := dataset.USMainland(dbSeed + 100)
	objs := gen.Objects(dbSeed+1, o.objects)
	fs, err := inst.createFile(o)
	if err != nil {
		return err
	}
	tree, err := rtree.New(fs, rtree.DefaultParams())
	if err != nil {
		return err
	}
	inst.tree = tree
	factory, err := core.FactoryByName(policyName)
	if err != nil {
		return err
	}
	// A data page holds at least 16 objects, so objects/8 frames hold
	// every page the build creates: the load never evicts.
	load, err := buffer.Composition{Layout: buffer.LayoutBare}.Build(fs, factory.New, o.objects/8+16)
	if err != nil {
		return err
	}
	if err := tree.UseBuffer(load, buffer.AccessContext{QueryID: 1}); err != nil {
		return err
	}
	for _, obj := range objs {
		if err := tree.Insert(obj.ID, obj.MBR); err != nil {
			return fmt.Errorf("load: %w", err)
		}
	}
	if err := load.Flush(); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	tree.UnbufferedIO()
	st, err := tree.Stats()
	if err != nil {
		return err
	}
	inst.pages = st.TotalPages()
	fs.ResetStats()
	if err := inst.buildPool(fs, o); err != nil {
		return err
	}
	if err := tree.UseBuffer(inst.clients[0].pool, buffer.AccessContext{QueryID: 1}); err != nil {
		return err
	}
	inst.upd = generateUpdates(gen, objs, warmupUpdates+o.updateOps, o.seed)
	return nil
}

// generateUpdates draws the update mix with experiment.DefaultUpdateMix's
// shares and window extension: windows centred uniformly in the data
// space, new objects from the database's own generator.
func generateUpdates(gen *dataset.Generator, objs []dataset.Object, n int, seed int64) *updateState {
	mix := experiment.DefaultUpdateMix()
	rng := rand.New(rand.NewSource(seed + 7))
	ops := make([]updateOp, n)
	inserts := 0
	space := gen.Space
	for i := range ops {
		r := rng.Float64()
		switch {
		case r < mix.QueryFrac:
			c := geom.Point{
				X: space.MinX + rng.Float64()*space.Width(),
				Y: space.MinY + rng.Float64()*space.Height(),
			}
			ops[i] = updateOp{kind: opQuery, rect: geom.RectFromCenter(c,
				space.Width()/float64(mix.WindowExt),
				space.Height()/float64(mix.WindowExt)).Intersection(space)}
		case r < mix.QueryFrac+mix.InsertFrac:
			ops[i].kind = opInsert
			inserts++
		default:
			ops[i] = updateOp{kind: opDelete, arg: rng.Uint64()}
		}
	}
	fresh := gen.Objects(seed+3, inserts)
	nextID := uint64(len(objs))
	k := 0
	for i := range ops {
		if ops[i].kind == opInsert {
			nextID++
			ops[i].rect, ops[i].arg = fresh[k].MBR, nextID
			k++
		}
	}
	return &updateState{ops: ops, live: append([]dataset.Object(nil), objs...)}
}

// buildPool composes the measured pool over the store, with the
// instrumentation of a traced run, and creates the clients.
func (inst *instance) buildPool(store storage.Store, o options) error {
	if o.wrapStore != nil {
		store = o.wrapStore(store)
	}
	factory, err := core.FactoryByName(policyName)
	if err != nil {
		return err
	}
	pf := factory.New
	if o.traced {
		inst.tstore = &tracedStore{Store: store}
		store = inst.tstore
		pf = traceFactory(pf, &inst.clocks)
	}
	comp, err := buffer.ParseComposition(inst.w.composition)
	if err != nil {
		return err
	}
	inst.frames = int(inst.w.frac * float64(inst.pages))
	if inst.frames < 2 {
		inst.frames = 2
	}
	inst.store = store
	inst.pool, err = comp.Build(store, pf, inst.frames)
	if err != nil {
		return err
	}
	if o.traced {
		shards := 1
		if comp.Shards > 0 {
			shards = comp.Shards
		}
		inst.contention = tracing.NewContention(shards)
		cp, ok := inst.pool.(interface{ EnableContention(*tracing.Contention) })
		if !ok {
			return fmt.Errorf("pool %s has no lock to profile", comp)
		}
		cp.EnableContention(inst.contention)
	}
	for c := 0; c < inst.w.clients; c++ {
		cl := &client{id: uint64(c), pool: inst.pool}
		if o.traced {
			cl.traced = &tracedPool{Pool: inst.pool}
			cl.pool = cl.traced
		}
		inst.clients = append(inst.clients, cl)
	}
	return nil
}

// createFile creates the instance's file store under a fresh name in
// the run directory.
func (inst *instance) createFile(o options) (*storage.FileStore, error) {
	f, err := os.CreateTemp(o.dir, inst.w.name+"-*.pages")
	if err != nil {
		return nil, err
	}
	inst.filePath = f.Name()
	// CreateFileStore reopens the reserved name; this handle was only
	// for reserving it.
	_ = f.Close()
	fs, err := storage.CreateFileStore(inst.filePath)
	if err != nil {
		return nil, err
	}
	inst.fileDB = fs
	return fs, nil
}

// teardown closes the pool and removes the file store. It is safe on
// a partly built instance.
func (inst *instance) teardown() error {
	var errs []error
	if c, ok := inst.pool.(interface{ Close() error }); ok {
		errs = append(errs, c.Close())
	}
	if inst.fileDB != nil {
		errs = append(errs, inst.fileDB.Close())
	}
	if inst.filePath != "" {
		errs = append(errs, os.Remove(inst.filePath))
	}
	return errors.Join(errs...)
}
