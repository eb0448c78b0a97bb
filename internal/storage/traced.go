package storage

import (
	"repro/internal/obs/tracing"
	"repro/internal/page"
)

// PageBytes returns the encoded size of p in bytes — the 72-byte header
// plus 48 bytes per entry, i.e. the payload a FileStore write would
// occupy before padding to PageSize. Trace spans report this instead of the padded size so that
// sparse and dense pages are distinguishable in the I/O profile.
func PageBytes(p *page.Page) int {
	if p == nil {
		return 0
	}
	return headerSize + entrySize*len(p.Entries)
}

// tracedStore decorates a Store with per-request trace spans: every Read
// and Write attaches a child span (with page ID, byte count and error
// flag) to whatever trace is active in the slot. Unsampled requests find
// a nil Active and pay one nil check per call; the underlying store sees
// the exact same call sequence either way.
type tracedStore struct {
	inner Store
	slot  *tracing.Slot
}

// Traced wraps store so that physical reads and writes appear as child
// spans of the trace currently parked in slot. The buffer manager installs
// the wrapper when a tracer is attached; the slot is owned by the manager
// and read under its serialization, so the wrapper adds no locking.
func Traced(store Store, slot *tracing.Slot) Store {
	return &tracedStore{inner: store, slot: slot}
}

// Read implements Store, recording a store.Read span on sampled requests.
func (t *tracedStore) Read(id page.ID) (*page.Page, error) {
	a := t.slot.Active()
	if a == nil {
		return t.inner.Read(id)
	}
	idx := a.Start(tracing.KindStoreRead)
	p, err := t.inner.Read(id)
	sp := a.At(idx)
	sp.Page = id
	sp.Err = err != nil
	sp.Bytes = int32(PageBytes(p))
	a.End(idx)
	return p, err
}

// Write implements Store, recording a store.Write span on sampled requests.
func (t *tracedStore) Write(p *page.Page) error {
	a := t.slot.Active()
	if a == nil {
		return t.inner.Write(p)
	}
	idx := a.Start(tracing.KindStoreWrite)
	err := t.inner.Write(p)
	sp := a.At(idx)
	if p != nil {
		sp.Page = p.ID
	}
	sp.Err = err != nil
	sp.Bytes = int32(PageBytes(p))
	a.End(idx)
	return err
}

// Allocate implements Store.
func (t *tracedStore) Allocate() page.ID { return t.inner.Allocate() }

// NumPages implements Store.
func (t *tracedStore) NumPages() int { return t.inner.NumPages() }

// Stats implements Store.
func (t *tracedStore) Stats() Stats { return t.inner.Stats() }

// ResetStats implements Store.
func (t *tracedStore) ResetStats() { t.inner.ResetStats() }

// Close implements Store.
func (t *tracedStore) Close() error { return t.inner.Close() }
