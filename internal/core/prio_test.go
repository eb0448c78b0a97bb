package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/page"
)

func TestTypePriority(t *testing.T) {
	tests := []struct {
		typ  page.Type
		want int
	}{
		{page.TypeObject, 0},
		{page.TypeData, 1},
		{page.TypeDirectory, 2},
	}
	for _, tt := range tests {
		if got := core.TypePriority(page.Meta{Type: tt.typ}); got != tt.want {
			t.Errorf("TypePriority(%v) = %d, want %d", tt.typ, got, tt.want)
		}
	}
}

func TestLevelPriority(t *testing.T) {
	if got := core.LevelPriority(page.Meta{Type: page.TypeObject, Level: 5}); got != 0 {
		t.Errorf("object priority = %d, want 0", got)
	}
	if got := core.LevelPriority(page.Meta{Type: page.TypeData, Level: 0}); got != 1 {
		t.Errorf("data priority = %d, want 1", got)
	}
	if got := core.LevelPriority(page.Meta{Type: page.TypeDirectory, Level: 3}); got != 4 {
		t.Errorf("level-3 directory priority = %d, want 4", got)
	}
}

func TestLRUTDropsObjectPagesFirst(t *testing.T) {
	// Pages: 1=directory, 2=data, 3=object, 4=data.
	s := buildStore(t, []pageSpec{
		{typ: page.TypeDirectory, level: 1, area: 1},
		{typ: page.TypeData, level: 0, area: 1},
		{typ: page.TypeObject, level: 0, area: 1},
		{typ: page.TypeData, level: 0, area: 1},
	})
	m := mustEngine(t, s, core.NewLRUT(), 3)
	runOn(t, m, seqOf(1, 2, 3))
	// Object page 3 was used most recently, but must be evicted first.
	runOn(t, m, []access{q(4, 9)})
	if m.Contains(3) || !resident(m, 1, 2, 4) {
		t.Errorf("resident = %v, want [1 2 4]", m.ResidentIDs())
	}
}

func TestLRUTKeepsDirectoryLongest(t *testing.T) {
	// 1=directory accessed first, 2,3,4=data; capacity 2.
	s := buildStore(t, []pageSpec{
		{typ: page.TypeDirectory, level: 1, area: 1},
		dataPage(1), dataPage(1), dataPage(1),
	})
	m := mustEngine(t, s, core.NewLRUT(), 2)
	runOn(t, m, seqOf(1, 2, 3, 4))
	// Data pages churn among themselves; the directory page stays.
	if !m.Contains(1) {
		t.Errorf("directory page evicted; resident = %v", m.ResidentIDs())
	}
}

func TestLRUPEvictsLowestLevelFirst(t *testing.T) {
	// Levels: 1→root (2), 2→mid (1), 3,4→leaf (0). Capacity 3.
	s := buildStore(t, []pageSpec{
		{typ: page.TypeDirectory, level: 2, area: 1},
		{typ: page.TypeDirectory, level: 1, area: 1},
		{typ: page.TypeData, level: 0, area: 1},
		{typ: page.TypeData, level: 0, area: 1},
	})
	m := mustEngine(t, s, core.NewLRUP(), 3)
	runOn(t, m, seqOf(3, 1, 2)) // leaf requested first = least recent
	// Admitting page 4 must evict page 3 (lowest level) even though the
	// recency order alone would also pick 3 here; so re-touch 3 first.
	runOn(t, m, []access{q(3, 8)}) // 3 is now the most recently used
	runOn(t, m, []access{q(4, 9)})
	if m.Contains(3) {
		t.Errorf("leaf page 3 should be evicted despite recent use; resident = %v", m.ResidentIDs())
	}
	if !resident(m, 1, 2, 4) {
		t.Errorf("resident = %v, want [1 2 4]", m.ResidentIDs())
	}
}

func TestLRUPUsesLRUWithinLevel(t *testing.T) {
	s := buildStore(t, []pageSpec{
		dataPage(1), dataPage(1), dataPage(1),
	})
	m := mustEngine(t, s, core.NewLRUP(), 2)
	runOn(t, m, seqOf(1, 2))
	runOn(t, m, []access{q(1, 5)}) // 1 more recent than 2
	runOn(t, m, []access{q(3, 6)})
	if m.Contains(2) || !resident(m, 1, 3) {
		t.Errorf("resident = %v, want [1 3]", m.ResidentIDs())
	}
}

func TestPriorityLRUNames(t *testing.T) {
	if core.NewLRUT().Name() != "LRU-T" {
		t.Error("LRU-T name")
	}
	if core.NewLRUP().Name() != "LRU-P" {
		t.Error("LRU-P name")
	}
}

func TestPriorityLRUReset(t *testing.T) {
	s := buildStore(t, []pageSpec{
		{typ: page.TypeDirectory, level: 1, area: 1},
		dataPage(1), dataPage(1),
	})
	m := mustEngine(t, s, core.NewLRUP(), 2)
	runOn(t, m, seqOf(1, 2, 3))
	if err := m.Clear(); err != nil {
		t.Fatal(err)
	}
	misses := runOn(t, m, seqOf(1, 2))
	if len(misses) != 2 {
		t.Errorf("cold misses after reset = %d, want 2", len(misses))
	}
}
