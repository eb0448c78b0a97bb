package zbtree

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

var space = geom.NewRect(0, 0, 1000, 500)

func TestEncodeQuadrantOrder(t *testing.T) {
	// The four quadrants of the space must map to increasing z prefixes
	// in the order LL, LR, UL, UR (x in the even bits).
	ll := Encode(geom.Point{X: 100, Y: 100}, space)
	lr := Encode(geom.Point{X: 900, Y: 100}, space)
	ul := Encode(geom.Point{X: 100, Y: 400}, space)
	ur := Encode(geom.Point{X: 900, Y: 400}, space)
	if !(ll < lr && lr < ul && ul < ur) {
		t.Errorf("quadrant z order violated: LL=%x LR=%x UL=%x UR=%x", ll, lr, ul, ur)
	}
}

func TestEncodeBounds(t *testing.T) {
	if z := Encode(geom.Point{X: 0, Y: 0}, space); z != 0 {
		t.Errorf("min corner z = %x, want 0", z)
	}
	if z := Encode(geom.Point{X: 1000, Y: 500}, space); z != 0xFFFFFFFF {
		t.Errorf("max corner z = %x, want FFFFFFFF", z)
	}
	// Out-of-space points clamp.
	if z := Encode(geom.Point{X: -50, Y: -50}, space); z != 0 {
		t.Errorf("clamped z = %x", z)
	}
	// Degenerate space.
	if z := Encode(geom.Point{X: 1, Y: 1}, geom.RectFromPoint(geom.Point{})); z != 0 {
		t.Errorf("degenerate space z = %x", z)
	}
}

func TestEncodeLocality(t *testing.T) {
	// Two points in the same 64×64-quantum cell share the z prefix above
	// the cell bits (the Z-curve locality property). The pair below is
	// chosen away from cell boundaries; the guard asserts the premise.
	p1 := geom.Point{X: 301.0, Y: 201.0}
	p2 := geom.Point{X: 301.2, Y: 201.1}
	qx1 := quantize(p1.X, space.MinX, space.MaxX)
	qx2 := quantize(p2.X, space.MinX, space.MaxX)
	qy1 := quantize(p1.Y, space.MinY, space.MaxY)
	qy2 := quantize(p2.Y, space.MinY, space.MaxY)
	if qx1/64 != qx2/64 || qy1/64 != qy2/64 {
		t.Fatalf("test premise broken: points not in the same cell")
	}
	a := Encode(p1, space)
	b := Encode(p2, space)
	if (a^b)>>12 != 0 {
		t.Errorf("same-cell points differ above the cell bits: %x vs %x", a, b)
	}
}

func TestNewValidation(t *testing.T) {
	s := storage.NewMemStore()
	if _, err := New(nil, space, DefaultParams()); err == nil {
		t.Error("nil store should fail")
	}
	if _, err := New(s, geom.EmptyRect(), DefaultParams()); err == nil {
		t.Error("empty space should fail")
	}
	if _, err := New(s, space, Params{MaxDirEntries: 2, MaxLeafEntries: 2}); err == nil {
		t.Error("tiny fan-out should fail")
	}
}

// buildZ inserts n clustered objects and returns the tree.
func buildZ(t *testing.T, n int, seed int64) (*Tree, []geom.Rect) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := storage.NewMemStore()
	tr, err := New(s, space, Params{MaxDirEntries: 8, MaxLeafEntries: 6})
	if err != nil {
		t.Fatal(err)
	}
	mbrs := make([]geom.Rect, n)
	for i := range mbrs {
		x := rng.Float64() * 1000
		y := rng.Float64() * 500
		mbrs[i] = geom.NewRect(x, y, x+rng.Float64()*3, y+rng.Float64()*3).Intersection(space)
		if err := tr.Insert(uint64(i+1), mbrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return tr, mbrs
}

// validateZ checks the B+-tree invariants: leaf z order, separator
// correctness, level consistency and object count.
func validateZ(t *testing.T, tr *Tree) {
	t.Helper()
	objects := 0
	var walk func(id page.ID, expectLevel int) uint32
	walk = func(id page.ID, expectLevel int) uint32 {
		node, err := tr.store.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if expectLevel >= 0 && node.Level != expectLevel {
			t.Fatalf("node %d at level %d, want %d", id, node.Level, expectLevel)
		}
		if node.Level == 0 {
			objects += len(node.Entries)
			var last uint32
			for i, e := range node.Entries {
				z := tr.zOfLeaf(e)
				if i > 0 && z < last {
					t.Fatalf("leaf %d entries out of z order", id)
				}
				last = z
			}
			return tr.minZ(node)
		}
		var lastSep uint32
		for i, e := range node.Entries {
			sep := uint32(e.ObjID)
			if i > 0 && sep < lastSep {
				t.Fatalf("directory %d separators out of order", id)
			}
			lastSep = sep
			childMin := walk(e.Child, node.Level-1)
			if childMin != sep {
				t.Fatalf("directory %d entry %d separator %x != child min %x", id, i, sep, childMin)
			}
		}
		return uint32(node.Entries[0].ObjID)
	}
	walk(tr.root, tr.height-1)
	if objects != tr.NumObjects() {
		t.Fatalf("%d reachable objects, NumObjects() = %d", objects, tr.NumObjects())
	}
}

func TestInsertAndValidate(t *testing.T) {
	for _, n := range []int{1, 6, 7, 50, 500, 3000} {
		tr, _ := buildZ(t, n, int64(n))
		if tr.NumObjects() != n {
			t.Errorf("n=%d: NumObjects = %d", n, tr.NumObjects())
		}
		validateZ(t, tr)
	}
}

func TestTreeGrows(t *testing.T) {
	tr, _ := buildZ(t, 3000, 1)
	if tr.Height() < 3 {
		t.Errorf("height = %d for 3000 objects at fan-out 6", tr.Height())
	}
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.LeafPages < 3000/6 || st.DirPages == 0 {
		t.Errorf("stats: %+v", st)
	}
	if st.TotalPages() != st.LeafPages+st.DirPages {
		t.Error("TotalPages inconsistent")
	}
}

func TestRangeSearchMatchesBruteForce(t *testing.T) {
	tr, mbrs := buildZ(t, 1200, 2)
	rd := rtree.StoreReader{Store: tr.Store()}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		a := rng.Uint32()
		b := rng.Uint32()
		if a > b {
			a, b = b, a
		}
		var got []uint64
		err := tr.RangeSearch(rd, buffer.AccessContext{}, a, b, func(e page.Entry) bool {
			got = append(got, e.ObjID)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		var want []uint64
		for i, m := range mbrs {
			z := Encode(m.Center(), space)
			if z >= a && z <= b {
				want = append(want, uint64(i+1))
			}
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: mismatch at %d", trial, i)
			}
		}
	}
}

func TestWindowQueryMatchesBruteForce(t *testing.T) {
	tr, mbrs := buildZ(t, 1500, 4)
	rd := rtree.StoreReader{Store: tr.Store()}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		c := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 500}
		w := geom.RectFromCenter(c, rng.Float64()*100, rng.Float64()*80).Intersection(space)
		if w.IsEmpty() {
			continue
		}
		var got []uint64
		err := tr.WindowQuery(rd, buffer.AccessContext{QueryID: uint64(trial)}, w,
			func(e page.Entry) bool { got = append(got, e.ObjID); return true })
		if err != nil {
			t.Fatal(err)
		}
		var want []uint64
		for i, m := range mbrs {
			// The z-index keys objects by their centre: an object is
			// found iff its centre's cell range is scanned AND its MBR
			// intersects. The decomposition covers every cell the window
			// touches, and centres outside the window can still have
			// intersecting MBRs only if the object straddles the window
			// edge — those are found only when their centre cell is
			// scanned. The query contract of a z-index is therefore
			// centre-in-window OR intersecting-with-scanned-cell; the
			// brute force below mirrors the implementable contract:
			// intersecting MBRs whose centres fall in scanned ranges.
			z := Encode(m.Center(), space)
			inRange := false
			for _, r := range DecomposeWindow(w, space, 8) {
				if z >= r.Lo && z <= r.Hi {
					inRange = true
					break
				}
			}
			if inRange && m.Intersects(w) {
				want = append(want, uint64(i+1))
			}
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: mismatch at %d", trial, i)
			}
		}
	}
}

func TestWindowQueryFindsAllCenteredObjects(t *testing.T) {
	// Completeness guarantee: every object whose CENTRE lies in the
	// window must be reported (the decomposition covers the window).
	tr, mbrs := buildZ(t, 1500, 6)
	rd := rtree.StoreReader{Store: tr.Store()}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		c := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 500}
		w := geom.RectFromCenter(c, rng.Float64()*120, rng.Float64()*90).Intersection(space)
		if w.IsEmpty() {
			continue
		}
		got := map[uint64]bool{}
		err := tr.WindowQuery(rd, buffer.AccessContext{}, w,
			func(e page.Entry) bool { got[e.ObjID] = true; return true })
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range mbrs {
			if w.ContainsPoint(m.Center()) && !got[uint64(i+1)] {
				t.Fatalf("trial %d: object %d (centre in window) missing", trial, i+1)
			}
		}
	}
}

func TestDecomposeWindowCoversWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		c := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 500}
		w := geom.RectFromCenter(c, rng.Float64()*150, rng.Float64()*100).Intersection(space)
		if w.IsEmpty() {
			continue
		}
		ranges := DecomposeWindow(w, space, 8)
		if len(ranges) == 0 {
			t.Fatal("no ranges for non-empty window")
		}
		// Ranges are sorted, disjoint and non-adjacent after merging.
		for i := 1; i < len(ranges); i++ {
			if ranges[i].Lo <= ranges[i-1].Hi+1 {
				t.Fatalf("ranges not merged/sorted: %v then %v", ranges[i-1], ranges[i])
			}
		}
		// Every random point inside the window must have its z covered.
		for k := 0; k < 50; k++ {
			p := geom.Point{
				X: w.MinX + rng.Float64()*w.Width(),
				Y: w.MinY + rng.Float64()*w.Height(),
			}
			z := Encode(p, space)
			covered := false
			for _, r := range ranges {
				if z >= r.Lo && z <= r.Hi {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("point %v (z=%x) not covered by decomposition", p, z)
			}
		}
	}
}

func TestQueriesThroughBufferManager(t *testing.T) {
	tr, _ := buildZ(t, 2000, 9)
	tr.Store().(*storage.MemStore).ResetStats()
	if err := tr.FinalizeStats(); err != nil {
		t.Fatal(err)
	}
	pol := &countingPolicy{}
	m, err := buffer.NewEngine(tr.Store(), pol, 24)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 40; trial++ {
		c := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 500}
		w := geom.RectFromCenter(c, 60, 40).Intersection(space)
		err := tr.WindowQuery(m, buffer.AccessContext{QueryID: uint64(trial)}, w,
			func(page.Entry) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("expected hits and misses through the buffer: %+v", st)
	}
}

// countingPolicy is a trivial FIFO used to exercise the Reader plumbing.
type countingPolicy struct {
	frames []*buffer.Frame
}

func (p *countingPolicy) Name() string { return "counting" }
func (p *countingPolicy) OnAdmit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {
	p.frames = append(p.frames, f)
}
func (p *countingPolicy) OnHit(f *buffer.Frame, now uint64, ctx buffer.AccessContext) {}
func (p *countingPolicy) Victim(ctx buffer.AccessContext) *buffer.Frame {
	for _, f := range p.frames {
		if !f.Pinned() {
			return f
		}
	}
	return nil
}
func (p *countingPolicy) OnEvict(f *buffer.Frame) {
	for i, g := range p.frames {
		if g == f {
			p.frames = append(p.frames[:i], p.frames[i+1:]...)
			return
		}
	}
}
func (p *countingPolicy) Reset() { p.frames = nil }

func TestInsertRejectsInvalidMBR(t *testing.T) {
	s := storage.NewMemStore()
	tr, err := New(s, space, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(1, geom.EmptyRect()); err == nil {
		t.Error("empty MBR should fail")
	}
}
