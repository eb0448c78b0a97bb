package objstore

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/page"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// buildObjects returns n shaped objects over the US-mainland generator.
func buildObjects(t testing.TB, n int) []dataset.ShapedObject {
	t.Helper()
	return dataset.USMainland(1).ShapedObjects(2, n)
}

// toExact converts shaped objects for the store builder.
func toExact(shaped []dataset.ShapedObject) []ExactObject {
	out := make([]ExactObject, len(shaped))
	for i, s := range shaped {
		out[i] = ExactObject{ID: s.ID, Shape: s.Shape}
	}
	return out
}

func TestBuildAndFetch(t *testing.T) {
	shaped := buildObjects(t, 500)
	pages := storage.NewMemStore()
	st, err := Build(pages, toExact(shaped), 16)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumObjects() != 500 {
		t.Errorf("NumObjects = %d", st.NumObjects())
	}
	if st.NumPages() == 0 || st.NumPages() != pages.NumPages() {
		t.Errorf("NumPages = %d, store has %d", st.NumPages(), pages.NumPages())
	}
	rd := rtree.StoreReader{Store: pages}
	for _, s := range shaped {
		segs, err := st.FetchSegments(rd, buffer.AccessContext{}, s.ID)
		if err != nil {
			t.Fatalf("fetch %d: %v", s.ID, err)
		}
		wantSegs := s.Shape.NumSegments()
		if wantSegs == 0 {
			wantSegs = 1
		}
		if len(segs) != wantSegs {
			t.Fatalf("object %d: %d segments, want %d", s.ID, len(segs), wantSegs)
		}
		// Union of segment MBRs is the object MBR.
		if got := geom.MBR(segs...); !got.Equal(s.MBR) {
			t.Fatalf("object %d: segment union %v != MBR %v", s.ID, got, s.MBR)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	pages := storage.NewMemStore()
	if _, err := Build(nil, nil, 0); err == nil {
		t.Error("nil store should fail")
	}
	if _, err := Build(pages, []ExactObject{{ID: 1}}, 0); err == nil {
		t.Error("shapeless object should fail")
	}
	if _, err := Build(pages, []ExactObject{
		{ID: 1, Shape: geom.Polyline{{X: 1, Y: 1}}},
		{ID: 1, Shape: geom.Polyline{{X: 2, Y: 2}}},
	}, 0); err == nil {
		t.Error("duplicate ID should fail")
	}
	if _, err := Build(pages, nil, storage.MaxEntries+1); err == nil {
		t.Error("oversized maxEntries should fail")
	}
}

func TestFetchUnknownObject(t *testing.T) {
	pages := storage.NewMemStore()
	st, err := Build(pages, toExact(buildObjects(t, 5)), 0)
	if err != nil {
		t.Fatal(err)
	}
	rd := rtree.StoreReader{Store: pages}
	if _, err := st.FetchSegments(rd, buffer.AccessContext{}, 999); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("err = %v, want ErrUnknownObject", err)
	}
}

func TestObjectPagesHaveObjectType(t *testing.T) {
	pages := storage.NewMemStore()
	st, err := Build(pages, toExact(buildObjects(t, 200)), 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, objID := range st.SortedObjectIDs() {
		for _, pid := range st.Pages(objID) {
			p, err := pages.Read(pid)
			if err != nil {
				t.Fatal(err)
			}
			if p.Type != page.TypeObject {
				t.Fatalf("page %d has type %v, want object", pid, p.Type)
			}
			if p.MBR.IsEmpty() || p.NumEntries == 0 {
				t.Fatalf("page %d has no derived stats", pid)
			}
		}
	}
}

func TestLargeObjectSpansPages(t *testing.T) {
	// 30 segments with maxEntries 8 → at least 4 pages.
	shape := make(geom.Polyline, 31)
	rng := rand.New(rand.NewSource(3))
	for i := range shape {
		shape[i] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	pages := storage.NewMemStore()
	st, err := Build(pages, []ExactObject{{ID: 7, Shape: shape}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(st.Pages(7)); got < 4 {
		t.Errorf("object spans %d pages, want ≥ 4", got)
	}
	rd := rtree.StoreReader{Store: pages}
	segs, err := st.FetchSegments(rd, buffer.AccessContext{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 30 {
		t.Errorf("fetched %d segments, want 30", len(segs))
	}
}

// buildFilterRefine sets up a tree + object store over the same shaped
// objects.
func buildFilterRefine(t testing.TB, n int) (*rtree.Tree, *Store, *storage.MemStore, *storage.MemStore, map[uint64]geom.Polyline, []dataset.ShapedObject) {
	shaped := buildObjects(t, n)
	treeStore := storage.NewMemStore()
	tree, err := rtree.New(treeStore, rtree.Params{
		MaxDirEntries: 16, MaxDataEntries: 12, MinFillFrac: 0.4, ReinsertFrac: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	shapes := make(map[uint64]geom.Polyline, n)
	for _, s := range shaped {
		if err := tree.Insert(s.ID, s.MBR); err != nil {
			t.Fatal(err)
		}
		shapes[s.ID] = s.Shape
	}
	objPages := storage.NewMemStore()
	objs, err := Build(objPages, toExact(shaped), 0)
	if err != nil {
		t.Fatal(err)
	}
	return tree, objs, treeStore, objPages, shapes, shaped
}

func TestFilterRefineMatchesBruteForce(t *testing.T) {
	tree, objs, treeStore, objPages, shapes, shaped := buildFilterRefine(t, 3000)
	treeRd := rtree.StoreReader{Store: treeStore}
	objRd := rtree.StoreReader{Store: objPages}
	rng := rand.New(rand.NewSource(9))
	space := dataset.USMainland(1).Space
	for trial := 0; trial < 60; trial++ {
		c := geom.Point{
			X: space.MinX + rng.Float64()*space.Width(),
			Y: space.MinY + rng.Float64()*space.Height(),
		}
		w := geom.RectFromCenter(c, rng.Float64()*40, rng.Float64()*30).Intersection(space)
		if w.IsEmpty() {
			continue
		}
		got := map[uint64]bool{}
		res, err := FilterRefine(tree, treeRd, objs, objRd, shapes,
			buffer.AccessContext{QueryID: uint64(trial + 1)}, w,
			func(id uint64) bool { got[id] = true; return true })
		if err != nil {
			t.Fatal(err)
		}
		wantHits := 0
		for _, s := range shaped {
			exact := s.Shape.IntersectsRect(w)
			if exact {
				wantHits++
				if !got[s.ID] {
					t.Fatalf("trial %d: object %d missing (exact hit)", trial, s.ID)
				}
			} else if got[s.ID] {
				t.Fatalf("trial %d: object %d reported but exact geometry misses", trial, s.ID)
			}
		}
		if res.Hits != wantHits {
			t.Fatalf("trial %d: Hits = %d, want %d", trial, res.Hits, wantHits)
		}
		if res.Candidates != res.Hits+res.FalseDrops {
			t.Fatalf("trial %d: inconsistent result %+v", trial, res)
		}
		if res.Candidates < res.Hits {
			t.Fatalf("trial %d: fewer candidates than hits", trial)
		}
	}
}

func TestFilterRefineProducesFalseDrops(t *testing.T) {
	// Deterministic false-drop scenario: an L-shaped polyline whose MBR
	// covers the unit square [0,10]² but whose geometry hugs the left and
	// bottom edges. A window in the empty top-right corner passes the MBR
	// filter and must be dropped by the refinement.
	l := geom.Polyline{{X: 0, Y: 10}, {X: 0, Y: 0}, {X: 10, Y: 0}}
	treeStore := storage.NewMemStore()
	tree, err := rtree.New(treeStore, rtree.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(1, l.MBR()); err != nil {
		t.Fatal(err)
	}
	objPages := storage.NewMemStore()
	objs, err := Build(objPages, []ExactObject{{ID: 1, Shape: l}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	shapes := map[uint64]geom.Polyline{1: l}
	treeRd := rtree.StoreReader{Store: treeStore}
	objRd := rtree.StoreReader{Store: objPages}

	window := geom.NewRect(6, 6, 9, 9) // inside the MBR, off the shape
	res, err := FilterRefine(tree, treeRd, objs, objRd, shapes,
		buffer.AccessContext{QueryID: 1}, window, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Candidates != 1 || res.Hits != 0 || res.FalseDrops != 1 {
		t.Errorf("corner window: %+v, want 1 candidate dropped", res)
	}

	// A window on the shape is a hit.
	res, err = FilterRefine(tree, treeRd, objs, objRd, shapes,
		buffer.AccessContext{QueryID: 2}, geom.NewRect(-1, -1, 1, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits != 1 || res.FalseDrops != 0 {
		t.Errorf("edge window: %+v, want 1 hit", res)
	}
}

func TestRefinementThroughSeparateBuffers(t *testing.T) {
	// The paper's setup: tree pages and object pages in separate buffers.
	// Both must record traffic, and object-page traffic must respect the
	// buffer abstraction (reads == misses).
	tree, objs, treeStore, objPages, shapes, _ := buildFilterRefine(t, 2000)
	treeBuf, err := buffer.NewEngine(treeStore, core.NewLRU(), 32)
	if err != nil {
		t.Fatal(err)
	}
	objBuf, err := buffer.NewEngine(objPages, core.NewLRUT(), 32)
	if err != nil {
		t.Fatal(err)
	}
	objPages.ResetStats()
	rng := rand.New(rand.NewSource(11))
	space := dataset.USMainland(1).Space
	for trial := 0; trial < 50; trial++ {
		c := geom.Point{
			X: space.MinX + rng.Float64()*space.Width(),
			Y: space.MinY + rng.Float64()*space.Height(),
		}
		w := geom.RectFromCenter(c, 25, 20).Intersection(space)
		if w.IsEmpty() {
			continue
		}
		if _, err := FilterRefine(tree, treeBuf, objs, objBuf, shapes,
			buffer.AccessContext{QueryID: uint64(trial + 1)}, w, nil); err != nil {
			t.Fatal(err)
		}
	}
	ts := treeBuf.Stats()
	os := objBuf.Stats()
	if ts.Requests == 0 || os.Requests == 0 {
		t.Fatalf("both buffers must see traffic: tree %+v, obj %+v", ts, os)
	}
	if objPages.Stats().Reads != os.Misses {
		t.Errorf("object-page physical reads %d != misses %d", objPages.Stats().Reads, os.Misses)
	}
}
