package experiment

import (
	"fmt"
	"math/rand"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/page"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// UpdateMix describes an update workload: a deterministic interleaving of
// window queries, insertions of new objects and deletions of existing
// ones, all running through one buffer (the paper's future-work item 2:
// "to study the influence of the strategies on updates").
type UpdateMix struct {
	// Ops is the total number of operations.
	Ops int
	// QueryFrac, InsertFrac and the remainder (deletes) partition Ops.
	QueryFrac  float64
	InsertFrac float64
	// WindowExt is the reciprocal window extension for queries.
	WindowExt int
}

// DefaultUpdateMix returns a read-mostly OLTP-ish mix.
func DefaultUpdateMix() UpdateMix {
	return UpdateMix{Ops: 4000, QueryFrac: 0.6, InsertFrac: 0.25, WindowExt: 100}
}

// UpdateResult is the cost of one policy under the update workload.
type UpdateResult struct {
	Policy     string
	Reads      uint64 // physical reads (buffer misses)
	WriteBacks uint64 // dirty pages written back
	IO         uint64 // Reads + WriteBacks
}

// RunUpdateWorkload executes the mix against database dbNum rebuilt
// freshly per policy (mutations change the tree, so policies cannot share
// one instance), with all tree I/O — queries *and* updates — routed
// through a buffer of the given relative size. Results come back in
// factory order.
func RunUpdateWorkload(dbNum, objects int, frac float64, factories []core.Factory, mix UpdateMix, seed int64) ([]UpdateResult, error) {
	if objects <= 0 {
		objects = 24_000
	}
	var gen *dataset.Generator
	switch dbNum {
	case 1:
		gen = dataset.USMainland(seed + 100)
	case 2:
		gen = dataset.WorldAtlas(seed + 200)
	default:
		return nil, fmt.Errorf("experiment: unknown database %d", dbNum)
	}

	var out []UpdateResult
	for _, f := range factories {
		res, err := runUpdateOnce(gen, objects, frac, f, mix, seed)
		if err != nil {
			return nil, fmt.Errorf("experiment: update workload with %s: %w", f.Name, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// runUpdateOnce builds a fresh tree and runs the mix under one policy.
func runUpdateOnce(gen *dataset.Generator, objects int, frac float64, f core.Factory, mix UpdateMix, seed int64) (UpdateResult, error) {
	objs := gen.Objects(seed+1, objects)
	store := storage.NewMemStore()
	tree, err := rtree.New(store, rtree.DefaultParams())
	if err != nil {
		return UpdateResult{}, err
	}
	for _, o := range objs {
		if err := tree.Insert(o.ID, o.MBR); err != nil {
			return UpdateResult{}, err
		}
	}
	st, err := tree.Stats()
	if err != nil {
		return UpdateResult{}, err
	}
	store.ResetStats()

	frames := int(frac * float64(st.TotalPages()))
	if frames < 2 {
		frames = 2
	}
	m, err := buffer.NewEngine(store, f.New(frames), frames)
	if err != nil {
		return UpdateResult{}, err
	}
	if err := tree.UseBuffer(m, buffer.AccessContext{QueryID: 1}); err != nil {
		return UpdateResult{}, err
	}
	defer tree.UnbufferedIO()

	// Deterministic operation stream: the same seed yields the same ops
	// for every policy.
	rng := rand.New(rand.NewSource(seed + 7))
	live := append([]dataset.Object(nil), objs...)
	nextID := uint64(objects + 1)
	space := gen.Space

	for op := 1; op <= mix.Ops; op++ {
		ctx := buffer.AccessContext{QueryID: uint64(op)}
		if err := tree.UseBufferContext(ctx); err != nil {
			return UpdateResult{}, err
		}
		r := rng.Float64()
		switch {
		case r < mix.QueryFrac:
			c := geom.Point{
				X: space.MinX + rng.Float64()*space.Width(),
				Y: space.MinY + rng.Float64()*space.Height(),
			}
			w := geom.RectFromCenter(c,
				space.Width()/float64(mix.WindowExt),
				space.Height()/float64(mix.WindowExt)).Intersection(space)
			if w.IsEmpty() {
				continue
			}
			err := tree.Search(m, ctx, w, func(page.Entry) bool { return true })
			if err != nil {
				return UpdateResult{}, err
			}
		case r < mix.QueryFrac+mix.InsertFrac:
			o := gen.Objects(seed+int64(op)*13, 1)[0]
			o.ID = nextID
			nextID++
			if err := tree.Insert(o.ID, o.MBR); err != nil {
				return UpdateResult{}, err
			}
			live = append(live, o)
		default:
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			o := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			found, err := tree.Delete(o.ID, o.MBR)
			if err != nil {
				return UpdateResult{}, err
			}
			if !found {
				return UpdateResult{}, fmt.Errorf("live object %d not found", o.ID)
			}
		}
	}
	if err := m.Flush(); err != nil {
		return UpdateResult{}, err
	}
	bs := m.Stats()
	return UpdateResult{
		Policy:     f.Name,
		Reads:      bs.DiskReads(),
		WriteBacks: bs.WriteBacks,
		IO:         bs.DiskIO(),
	}, nil
}
