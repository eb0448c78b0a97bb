package core_test

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/page"
	"repro/internal/storage"
)

// ExampleNewASB shows the adaptable spatial buffer in front of a page
// store: requests carry a query ID, misses cost physical reads, and the
// candidate-set size is introspectable.
func ExampleNewASB() {
	store := storage.NewMemStore()
	for i := 0; i < 20; i++ {
		id := store.Allocate()
		p := page.New(id, page.TypeData, 0, 1)
		p.Append(page.Entry{MBR: geom.NewRect(0, 0, float64(i+1), 1), ObjID: uint64(i)})
		p.Recompute()
		if err := store.Write(p); err != nil {
			panic(err)
		}
	}

	policy := core.NewASB(10, core.DefaultASBOptions())
	buf, err := buffer.NewEngine(store, policy, 10)
	if err != nil {
		panic(err)
	}
	for q := uint64(1); q <= 5; q++ {
		for id := page.ID(1); id <= 12; id++ {
			if _, err := buf.Get(id, buffer.AccessContext{QueryID: q}); err != nil {
				panic(err)
			}
		}
	}
	st := buf.Stats()
	fmt.Printf("requests=%d disk accesses=%d\n", st.Requests, st.DiskReads())
	fmt.Printf("main part=%d overflow=%d\n", policy.MainCapacity(), policy.OverflowCapacity())
	// Output:
	// requests=60 disk accesses=56
	// main part=8 overflow=2
}

// ExampleNewSpatial demonstrates the paper's pure spatial strategy A: the
// page with the smallest MBR area is evicted first, regardless of
// recency.
func ExampleNewSpatial() {
	store := storage.NewMemStore()
	areas := []float64{100, 1, 50}
	for i, a := range areas {
		id := store.Allocate()
		p := page.New(id, page.TypeData, 0, 1)
		p.Append(page.Entry{MBR: geom.NewRect(0, 0, a, 1), ObjID: uint64(i)})
		p.Recompute()
		if err := store.Write(p); err != nil {
			panic(err)
		}
	}
	buf, err := buffer.NewEngine(store, core.NewSpatial(page.CritA), 2)
	if err != nil {
		panic(err)
	}
	ctx := buffer.AccessContext{QueryID: 1}
	buf.Get(1, ctx) // area 100
	buf.Get(2, ctx) // area 1 — most recent, but smallest
	buf.Get(3, ctx) // evicts page 2, not page 1
	fmt.Println("page 1 resident:", buf.Contains(1))
	fmt.Println("page 2 resident:", buf.Contains(2))
	// Output:
	// page 1 resident: true
	// page 2 resident: false
}
