package quadtree

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/buffer"
	"repro/internal/geom"
	"repro/internal/page"
	"repro/internal/rtree"
	"repro/internal/storage"
)

var space = geom.NewRect(0, 0, 1024, 512)

type obj struct {
	id  uint64
	mbr geom.Rect
}

func randObjs(rng *rand.Rand, n int) []obj {
	objs := make([]obj, n)
	for i := range objs {
		x := rng.Float64() * 1000
		y := rng.Float64() * 500
		w := rng.Float64() * 8
		h := rng.Float64() * 8
		if rng.Intn(2) == 0 {
			w, h = 0, 0
		}
		objs[i] = obj{
			id:  uint64(i + 1),
			mbr: geom.NewRect(x, y, x+w, y+h).Intersection(space),
		}
	}
	return objs
}

func build(t *testing.T, objs []obj) *Tree {
	t.Helper()
	s := storage.NewMemStore()
	tr, err := New(s, space, Params{MaxEntries: 8, MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if err := tr.Insert(o.id, o.mbr); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func search(t *testing.T, tr *Tree, query geom.Rect) []uint64 {
	t.Helper()
	var ids []uint64
	err := tr.Search(rtree.StoreReader{Store: tr.Store()}, buffer.AccessContext{}, query,
		func(e page.Entry) bool { ids = append(ids, e.ObjID); return true })
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func brute(objs []obj, query geom.Rect) []uint64 {
	var ids []uint64
	for _, o := range objs {
		if o.mbr.Intersects(query) {
			ids = append(ids, o.id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func equalIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestNewValidation(t *testing.T) {
	s := storage.NewMemStore()
	if _, err := New(nil, space, DefaultParams()); err == nil {
		t.Error("nil store should fail")
	}
	if _, err := New(s, geom.EmptyRect(), DefaultParams()); err == nil {
		t.Error("empty space should fail")
	}
	if _, err := New(s, space, Params{MaxEntries: 1, MaxDepth: 4}); err == nil {
		t.Error("tiny capacity should fail")
	}
}

func TestInsertValidation(t *testing.T) {
	s := storage.NewMemStore()
	tr, err := New(s, space, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(1, geom.EmptyRect()); err == nil {
		t.Error("empty MBR should fail")
	}
	if err := tr.Insert(1, geom.NewRect(-10, 0, 5, 5)); err == nil {
		t.Error("out-of-space MBR should fail")
	}
}

func TestSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	objs := randObjs(rng, 3000)
	tr := build(t, objs)
	if tr.NumObjects() != 3000 {
		t.Fatalf("NumObjects = %d", tr.NumObjects())
	}
	for trial := 0; trial < 100; trial++ {
		c := geom.Point{X: rng.Float64() * 1024, Y: rng.Float64() * 512}
		q := geom.RectFromCenter(c, rng.Float64()*120, rng.Float64()*90).Intersection(space)
		if q.IsEmpty() {
			continue
		}
		if got, want := search(t, tr, q), brute(objs, q); !equalIDs(got, want) {
			t.Fatalf("trial %d: got %d, want %d", trial, len(got), len(want))
		}
	}
}

func TestStraddlersStayInInnerNodes(t *testing.T) {
	// An object across the space centre cannot descend: it must still be
	// found.
	s := storage.NewMemStore()
	tr, err := New(s, space, Params{MaxEntries: 4, MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	center := geom.NewRect(500, 250, 524, 262) // straddles both centre lines
	if err := tr.Insert(1, center); err != nil {
		t.Fatal(err)
	}
	// Force splits with contained objects.
	rng := rand.New(rand.NewSource(2))
	objs := []obj{{id: 1, mbr: center}}
	for i := 2; i <= 200; i++ {
		x, y := rng.Float64()*400, rng.Float64()*200 // SW quadrant
		m := geom.NewRect(x, y, x+2, y+2)
		if err := tr.Insert(uint64(i), m); err != nil {
			t.Fatal(err)
		}
		objs = append(objs, obj{id: uint64(i), mbr: m})
	}
	q := geom.NewRect(490, 240, 530, 270)
	if got, want := search(t, tr, q), brute(objs, q); !equalIDs(got, want) {
		t.Fatalf("straddler lost: got %v, want %v", got, want)
	}
}

func TestTreeSplitsAndStats(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	objs := randObjs(rng, 2000)
	tr := build(t, objs)
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Pages < 2000/8 {
		t.Errorf("implausibly few pages: %d", st.Pages)
	}
	if st.DirPages == 0 || st.MaxDepth < 2 {
		t.Errorf("no hierarchy: %+v", st)
	}
	if st.Objects != 2000 {
		t.Errorf("objects = %d", st.Objects)
	}
}

func TestDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	objs := randObjs(rng, 800)
	tr := build(t, objs)
	deleted := map[uint64]bool{}
	for _, idx := range rng.Perm(len(objs))[:400] {
		o := objs[idx]
		found, err := tr.Delete(o.id, o.mbr)
		if err != nil || !found {
			t.Fatalf("delete %d: %v %v", o.id, found, err)
		}
		deleted[o.id] = true
	}
	if tr.NumObjects() != 400 {
		t.Errorf("NumObjects = %d", tr.NumObjects())
	}
	var rest []obj
	for _, o := range objs {
		if !deleted[o.id] {
			rest = append(rest, o)
		}
	}
	for trial := 0; trial < 40; trial++ {
		c := geom.Point{X: rng.Float64() * 1024, Y: rng.Float64() * 512}
		q := geom.RectFromCenter(c, 100, 80).Intersection(space)
		if got, want := search(t, tr, q), brute(rest, q); !equalIDs(got, want) {
			t.Fatalf("post-delete trial %d: got %d, want %d", trial, len(got), len(want))
		}
	}
	if found, err := tr.Delete(9999, geom.NewRect(1, 1, 2, 2)); err != nil || found {
		t.Errorf("missing delete: %v %v", found, err)
	}
}

func TestSearchThroughBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	objs := randObjs(rng, 2500)
	tr := build(t, objs)
	if err := tr.FinalizeStats(); err != nil {
		t.Fatal(err)
	}
	ms := tr.Store().(*storage.MemStore)
	ms.ResetStats()
	pol := &fifoStub{}
	m, err := buffer.NewEngine(ms, pol, 16)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 40; trial++ {
		c := geom.Point{X: rng.Float64() * 1024, Y: rng.Float64() * 512}
		q := geom.RectFromCenter(c, 60, 40).Intersection(space)
		err := tr.Search(m, buffer.AccessContext{QueryID: uint64(trial)}, q,
			func(page.Entry) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("expected both hits and misses: %+v", st)
	}
	if ms.Stats().Reads != st.Misses {
		t.Errorf("reads %d != misses %d", ms.Stats().Reads, st.Misses)
	}
}

// fifoStub is a minimal policy for the buffer-plumbing test.
type fifoStub struct{ frames []*buffer.Frame }

func (p *fifoStub) Name() string { return "stub" }
func (p *fifoStub) OnAdmit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	p.frames = append(p.frames, f)
}
func (p *fifoStub) OnHit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {}
func (p *fifoStub) Victim(ctx buffer.AccessContext) *buffer.Frame {
	for _, f := range p.frames {
		if !f.Pinned() {
			return f
		}
	}
	return nil
}
func (p *fifoStub) OnEvict(f *buffer.Frame) {
	for i, g := range p.frames {
		if g == f {
			p.frames = append(p.frames[:i], p.frames[i+1:]...)
			return
		}
	}
}
func (p *fifoStub) Reset() { p.frames = nil }

func TestQuadrantPartition(t *testing.T) {
	cell := geom.NewRect(0, 0, 100, 100)
	union := geom.EmptyRect()
	area := 0.0
	for i := 0; i < 4; i++ {
		q := quadrant(cell, i)
		union = union.Union(q)
		area += q.Area()
	}
	if !union.Equal(cell) || area != cell.Area() {
		t.Errorf("quadrants do not partition the cell: union %v, area %g", union, area)
	}
}
