package experiment

import (
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// tinyOpts builds fast test databases (seconds, not minutes).
var tinyOpts = Options{Objects: 6000, Places: 400, Seed: 1}

func tinyDB(t *testing.T, n int) *Database {
	t.Helper()
	db, err := Get(n, tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestBuildDatabases(t *testing.T) {
	for _, n := range []int{1, 2} {
		db := tinyDB(t, n)
		if db.Stats.NumObjects != tinyOpts.Objects {
			t.Errorf("DB%d: %d objects", n, db.Stats.NumObjects)
		}
		if db.Stats.Height < 2 {
			t.Errorf("DB%d: height %d", n, db.Stats.Height)
		}
		// Paper fan-outs give a directory share of roughly 2–4%.
		if f := db.Stats.DirFraction(); f < 0.005 || f > 0.08 {
			t.Errorf("DB%d: directory fraction %.3f", n, f)
		}
		if err := db.Tree.Validate(); err != nil {
			t.Errorf("DB%d: %v", n, err)
		}
		if len(db.Places) != 600 { // floor of the places calibration
			t.Logf("DB%d: %d places", n, len(db.Places))
		}
	}
	if _, err := Build(3, tinyOpts); err == nil {
		t.Error("unknown database number should fail")
	}
}

func TestGetMemoizes(t *testing.T) {
	a := tinyDB(t, 1)
	b := tinyDB(t, 1)
	if a != b {
		t.Error("Get should memoize database builds")
	}
}

func TestFrames(t *testing.T) {
	db := tinyDB(t, 1)
	if f := db.Frames(0.047); f != int(0.047*float64(db.Stats.TotalPages())) {
		t.Errorf("Frames(4.7%%) = %d", f)
	}
	if f := db.Frames(0.0000001); f != 2 {
		t.Errorf("tiny fraction should clamp to 2, got %d", f)
	}
}

func TestQuerySetNames(t *testing.T) {
	db := tinyDB(t, 1)
	names := []string{
		"U-P", "U-W-33", "U-W-100", "U-W-333", "U-W-1000",
		"ID-P", "ID-W", "S-P", "S-W-33", "INT-P", "INT-W-100",
		"IND-P", "IND-W-1000",
	}
	for _, name := range names {
		qs, err := db.QuerySet(name, 50, 1)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if qs.Name != name {
			t.Errorf("set name %q != requested %q", qs.Name, name)
		}
		if qs.Len() != 50 {
			t.Errorf("%s: %d queries", name, qs.Len())
		}
	}
	if _, err := db.QuerySet("NOPE", 10, 1); err == nil {
		t.Error("unknown set should fail")
	}
	if _, err := db.QuerySet("U-W-x", 10, 1); err == nil {
		t.Error("malformed set should fail")
	}
}

func TestQueryCountCalibration(t *testing.T) {
	db := tinyDB(t, 1)
	n, err := db.QueryCount("U-P", 1)
	if err != nil {
		t.Fatal(err)
	}
	if n < 300 || n > 30000 {
		t.Errorf("calibrated count %d out of range", n)
	}
	// Large windows need fewer queries than points for the same budget.
	nw, err := db.QueryCount("U-W-33", 1)
	if err != nil {
		t.Fatal(err)
	}
	if nw > n {
		t.Errorf("window count %d > point count %d", nw, n)
	}
}

func TestRunAndGains(t *testing.T) {
	db := tinyDB(t, 1)
	factories, err := factoriesByName("LRU", "A", "LRU-2")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := Run(db, []string{"U-P", "INT-P"}, factories, []float64{0.01, 0.047}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []string{"U-P", "INT-P"} {
		if sw.Refs[set] == 0 {
			t.Errorf("%s: no refs", set)
		}
		for _, frac := range []float64{0.01, 0.047} {
			lru := sw.Accesses[Cell{Set: set, Policy: "LRU", Frac: frac}]
			if lru == 0 {
				t.Fatalf("%s: no LRU accesses", set)
			}
			if _, err := sw.Gain(set, "A", frac); err != nil {
				t.Errorf("Gain: %v", err)
			}
			rel, err := sw.Relative(set, "LRU-2", "A", frac)
			if err != nil {
				t.Errorf("Relative: %v", err)
			}
			if rel <= 0 {
				t.Errorf("relative accesses %.1f%% should be positive", rel)
			}
		}
	}
	// A beats LRU on uniform queries even on the tiny database (the
	// paper's most robust effect).
	g, err := sw.Gain("U-P", "A", 0.047)
	if err != nil {
		t.Fatal(err)
	}
	if g <= 0 {
		t.Errorf("A gain on U-P = %.3f, expected positive", g)
	}
	// Errors for unknown cells.
	if _, err := sw.Gain("U-P", "A", 0.5); err == nil {
		t.Error("missing frac should fail")
	}
	if _, err := sw.Gain("U-P", "NOPE", 0.01); err == nil {
		t.Error("missing policy should fail")
	}
	if _, err := sw.Relative("U-P", "A", "NOPE", 0.01); err == nil {
		t.Error("missing base should fail")
	}
}

func TestTraceCache(t *testing.T) {
	db := tinyDB(t, 1)
	a, err := db.Trace("U-P", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.Trace("U-P", 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("trace not cached")
	}
	c, err := db.Trace("U-P", 2)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different seeds must not share a cached trace")
	}
}

func TestRunAdaptation(t *testing.T) {
	db := tinyDB(t, 1)
	at, err := RunAdaptation(db, 0.047, 1)
	if err != nil {
		t.Fatal(err)
	}
	if at.Initial < 1 || at.MainCap < at.Initial {
		t.Errorf("initial %d / mainCap %d", at.Initial, at.MainCap)
	}
	if at.PhaseEnds[0] <= 0 || at.PhaseEnds[1] <= at.PhaseEnds[0] || at.PhaseEnds[2] <= at.PhaseEnds[1] {
		t.Errorf("phase ends %v not increasing", at.PhaseEnds)
	}
	for i, s := range at.Sizes {
		if s < 1 || s > at.MainCap {
			t.Fatalf("size %d out of range at event %d", s, i)
		}
	}
	for p := 0; p < 3; p++ {
		avg := at.PhaseAverage(p)
		if avg < 1 || avg > float64(at.MainCap) {
			t.Errorf("phase %d average %.1f out of range", p, avg)
		}
	}
}

func TestHistMemory(t *testing.T) {
	db := tinyDB(t, 1)
	records, frames, err := HistMemory(db, "U-P", 0.047, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The LRU-K drawback: retained histories exceed the buffer size.
	if records <= frames {
		t.Errorf("hist records %d ≤ frames %d; expected growth beyond buffer", records, frames)
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tab := NewTable("t1", "demo", "gain [%]", []string{"r1", "r2"}, []string{"c1", "c2"})
	if err := tab.Set("r1", "c2", 12.5); err != nil {
		t.Fatal(err)
	}
	if err := tab.Set("zz", "c1", 1); err == nil {
		t.Error("unknown row should fail")
	}
	v, err := tab.Get("r1", "c2")
	if err != nil || v != 12.5 {
		t.Errorf("Get = %v, %v", v, err)
	}
	if _, err := tab.Get("r1", "zz"); err == nil {
		t.Error("unknown col should fail")
	}
	text := tab.Render()
	if !strings.Contains(text, "t1") || !strings.Contains(text, "+12.5") {
		t.Errorf("render missing content:\n%s", text)
	}
	csv := tab.CSV()
	if !strings.Contains(csv, "row,c1,c2") || !strings.Contains(csv, "r1,0.0000,12.5000") {
		t.Errorf("csv malformed:\n%s", csv)
	}
}

func TestFigureRegistry(t *testing.T) {
	figs := Figures()
	want := []string{"4", "5", "6", "7", "8", "9", "12", "13", "14", "lrut", "crosssam", "updates"}
	for _, id := range want {
		if figs[id] == nil {
			t.Errorf("figure %q missing", id)
		}
	}
	ids := FigureIDs()
	if len(ids) != len(figs) {
		t.Errorf("FigureIDs returned %d of %d", len(ids), len(figs))
	}
	// Numeric order first, names after.
	if ids[0] != "4" || ids[len(ids)-1] != "updates" {
		t.Errorf("order: %v", ids)
	}
}

// TestFiguresSmoke runs every figure end-to-end on the tiny databases.
// Values are not asserted (the tiny scale distorts magnitudes); structure
// is.
func TestFiguresSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke test is slow")
	}
	for _, id := range FigureIDs() {
		fn := Figures()[id]
		tables, err := fn(tinyOpts, 1)
		if err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
		if len(tables) == 0 {
			t.Fatalf("figure %s produced no tables", id)
		}
		for _, tab := range tables {
			if tab.ID == "" || len(tab.Rows) == 0 || len(tab.Cols) == 0 {
				t.Errorf("figure %s: malformed table %+v", id, tab)
			}
			if len(tab.Cells) != len(tab.Rows) {
				t.Errorf("figure %s: cells/rows mismatch", id)
			}
			_ = tab.Render()
			_ = tab.CSV()
		}
	}
}

func TestFactoriesByNameError(t *testing.T) {
	if _, err := factoriesByName("LRU", "NOPE"); err == nil {
		t.Error("unknown factory should fail")
	}
	if _, err := core.FactoryByName("ASB"); err != nil {
		t.Errorf("ASB factory missing: %v", err)
	}
}

func TestRunUpdateWorkload(t *testing.T) {
	factories, err := factoriesByName("LRU", "A", "ASB")
	if err != nil {
		t.Fatal(err)
	}
	mix := UpdateMix{Ops: 600, QueryFrac: 0.6, InsertFrac: 0.25, WindowExt: 100}
	results, err := RunUpdateWorkload(1, 5000, 0.03, factories, mix, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.Reads == 0 {
			t.Errorf("%s: no reads", r.Policy)
		}
		if r.WriteBacks == 0 {
			t.Errorf("%s: no write-backs despite updates", r.Policy)
		}
		if r.IO != r.Reads+r.WriteBacks {
			t.Errorf("%s: IO %d != %d + %d", r.Policy, r.IO, r.Reads, r.WriteBacks)
		}
	}
	if _, err := RunUpdateWorkload(9, 100, 0.03, factories, mix, 1); err == nil {
		t.Error("unknown database should fail")
	}
}

// TestBufferedMutationsKeepTreeValid routes inserts and deletes through a
// buffer (write path included) and validates the tree afterwards.
func TestBufferedMutationsKeepTreeValid(t *testing.T) {
	gen := dataset.USMainland(1)
	objs := gen.Objects(3, 3000)
	store := storage.NewMemStore()
	tree, err := rtree.New(store, rtree.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs[:2000] {
		if err := tree.Insert(o.ID, o.MBR); err != nil {
			t.Fatal(err)
		}
	}
	f, err := core.FactoryByName("ASB")
	if err != nil {
		t.Fatal(err)
	}
	m, err := buffer.NewEngine(store, f.New(64), 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.UseBuffer(m, buffer.AccessContext{QueryID: 1}); err != nil {
		t.Fatal(err)
	}
	for i, o := range objs[2000:] {
		if err := tree.UseBufferContext(buffer.AccessContext{QueryID: uint64(i + 2)}); err != nil {
			t.Fatal(err)
		}
		if err := tree.Insert(o.ID, o.MBR); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range objs[:500] {
		found, err := tree.Delete(o.ID, o.MBR)
		if err != nil || !found {
			t.Fatalf("delete %d: %v %v", o.ID, found, err)
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	tree.UnbufferedIO()
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if tree.NumObjects() != 2500 {
		t.Errorf("NumObjects = %d, want 2500", tree.NumObjects())
	}
	if m.Stats().Puts == 0 || m.Stats().WriteBacks == 0 {
		t.Errorf("expected write-path traffic: %+v", m.Stats())
	}
}

// TestRunDeterministicUnderParallelism: the parallel sweep must produce
// bit-identical results across runs (replays share only the immutable
// store and trace).
func TestRunDeterministicUnderParallelism(t *testing.T) {
	db := tinyDB(t, 1)
	factories, err := factoriesByName("LRU", "A", "ASB", "LRU-2", "CLOCK")
	if err != nil {
		t.Fatal(err)
	}
	sets := []string{"U-P", "INT-P", "S-W-33"}
	fracs := []float64{0.006, 0.047}
	a, err := Run(db, sets, factories, fracs, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(db, sets, factories, fracs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Accesses) != len(b.Accesses) {
		t.Fatalf("cell counts differ: %d vs %d", len(a.Accesses), len(b.Accesses))
	}
	for cell, av := range a.Accesses {
		if bv := b.Accesses[cell]; av != bv {
			t.Errorf("%+v: %d vs %d", cell, av, bv)
		}
	}
}
