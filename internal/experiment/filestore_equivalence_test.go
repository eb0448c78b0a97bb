package experiment

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
	"repro/internal/trace"
)

// eventLog records every obs event in arrival order. All event types
// are comparable structs, so two logs compare element by element.
type eventLog struct {
	events []any
}

func (l *eventLog) Request(e obs.RequestEvent)                     { l.events = append(l.events, e) }
func (l *eventLog) Eviction(e obs.EvictionEvent)                   { l.events = append(l.events, e) }
func (l *eventLog) OverflowPromotion(e obs.OverflowPromotionEvent) { l.events = append(l.events, e) }
func (l *eventLog) Adapt(e obs.AdaptEvent)                         { l.events = append(l.events, e) }

// sameMetaBits reports whether a and b are bit-identical, floats
// compared by their bit patterns.
func sameMetaBits(a, b page.Meta) bool {
	bits := func(m page.Meta) [11]uint64 {
		return [11]uint64{
			uint64(m.ID), uint64(m.Type), uint64(m.Level), uint64(m.NumEntries),
			math.Float64bits(m.MBR.MinX), math.Float64bits(m.MBR.MinY),
			math.Float64bits(m.MBR.MaxX), math.Float64bits(m.MBR.MaxY),
			math.Float64bits(m.EntryAreaSum), math.Float64bits(m.EntryMarginSum),
			math.Float64bits(m.EntryOverlap),
		}
	}
	return bits(a) == bits(b)
}

// TestFileStoreReplayEquivalence copies the DB1 tree page for page from
// its MemStore into a FileStore, whose reads decode the spatial criteria
// from the page header instead of recomputing them. Every copied page
// must decode to the Meta of its in-memory original, and a query set
// replayed through the same composition over either store must give
// identical buffer stats and an identical event stream, Meta included.
// SPATIAL:EO evicts by the entry overlap, the costliest stored field.
func TestFileStoreReplayEquivalence(t *testing.T) {
	db := tinyDB(t, 1)
	fs, err := storage.CreateFileStore(filepath.Join(t.TempDir(), "db1.pages"))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	for id := page.ID(1); int(id) <= db.Store.NumPages(); id++ {
		if got := fs.Allocate(); got != id {
			t.Fatalf("allocated page %d, want %d", got, id)
		}
		p, err := db.Store.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	for id := page.ID(1); int(id) <= db.Store.NumPages(); id++ {
		want, err := db.Store.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fs.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if !sameMetaBits(got.Meta, want.Meta) {
			t.Fatalf("page %d decodes to Meta %+v, in memory %+v", id, got.Meta, want.Meta)
		}
	}

	tr, err := db.Trace("U-W-33", 1)
	if err != nil {
		t.Fatal(err)
	}
	frames := db.Frames(0.047)
	for _, name := range []string{"ASB", "SPATIAL:EO"} {
		f, err := core.FactoryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []string{"locked", "async,shards=1"} {
			t.Run(name+"/"+spec, func(t *testing.T) {
				comp, err := buffer.ParseComposition(spec)
				if err != nil {
					t.Fatal(err)
				}
				replay := func(store storage.Store) (buffer.Stats, []any) {
					t.Helper()
					pool, err := comp.Build(store, f.New, frames)
					if err != nil {
						t.Fatal(err)
					}
					log := &eventLog{}
					pool.SetSink(log)
					st, err := trace.ReplayOn(tr, pool)
					if err != nil {
						t.Fatal(err)
					}
					if c, ok := pool.(interface{ Close() error }); ok {
						if err := c.Close(); err != nil {
							t.Fatal(err)
						}
					}
					return st, log.events
				}
				memStats, memEvents := replay(db.Store)
				fileStats, fileEvents := replay(fs)
				if memStats.DiskReads() == 0 || memStats.Hits == 0 {
					t.Fatalf("replay too tame: %+v", memStats)
				}
				if fileStats != memStats {
					t.Errorf("stats diverged:\nfile %+v\nmem  %+v", fileStats, memStats)
				}
				if len(fileEvents) != len(memEvents) {
					t.Fatalf("event count diverged: file %d, mem %d", len(fileEvents), len(memEvents))
				}
				for i := range memEvents {
					if fileEvents[i] != memEvents[i] {
						t.Fatalf("event %d diverged:\nfile %+v\nmem  %+v", i, fileEvents[i], memEvents[i])
					}
				}
			})
		}
	}
}
