package storage

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/page"
)

// metaBits flattens m into comparable words, floats by their bit
// patterns, so "equal" means bit-identical (±Inf and -0 included).
func metaBits(m page.Meta) [11]uint64 {
	return [11]uint64{
		uint64(m.ID), uint64(m.Type), uint64(m.Level), uint64(m.NumEntries),
		math.Float64bits(m.MBR.MinX), math.Float64bits(m.MBR.MinY),
		math.Float64bits(m.MBR.MaxX), math.Float64bits(m.MBR.MaxY),
		math.Float64bits(m.EntryAreaSum), math.Float64bits(m.EntryMarginSum),
		math.Float64bits(m.EntryOverlap),
	}
}

// requireMetaBits fails unless got and want are bit-identical.
func requireMetaBits(t *testing.T, what string, got, want page.Meta) {
	t.Helper()
	if metaBits(got) != metaBits(want) {
		t.Fatalf("%s: meta not bit-identical:\n got %+v\nwant %+v", what, got, want)
	}
}

// roundTrip encodes p and decodes the result.
func roundTrip(t *testing.T, p *page.Page) *page.Page {
	t.Helper()
	buf := make([]byte, PageSize)
	if err := EncodePage(p, buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodePage(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

// densePage builds a recomputed page of n entries crowded into a small
// square, so their pairwise overlap (criterion EO) is far from zero.
func densePage(id page.ID, typ page.Type, level, n int, rng *rand.Rand) *page.Page {
	p := page.New(id, typ, level, n)
	for i := 0; i < n; i++ {
		x, y := rng.Float64()*20, rng.Float64()*20
		p.Append(page.Entry{
			MBR:   geom.NewRect(x, y, x+1+rng.Float64()*10, y+1+rng.Float64()*10),
			Child: page.ID(i + 2),
			ObjID: rng.Uint64(),
		})
	}
	p.Recompute()
	return p
}

// TestCodecStoresDerivedMeta encodes pages whose own Meta is stale
// (RecomputeFast leaves EntryOverlap at zero) or zeroed: the decoded
// page must carry exactly the Meta that Recompute gives over its
// entries, not the Meta the page was written with.
func TestCodecStoresDerivedMeta(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		p := densePage(page.ID(trial+1), page.Type(trial%3), trial%4, 2+rng.Intn(MaxEntries-1), rng)
		want := p.Meta // densePage ran the full Recompute
		if want.EntryOverlap == 0 {
			t.Fatal("page without entry overlap; the stale case is not exercised")
		}

		p.RecomputeFast()
		requireMetaBits(t, "fast-recomputed page", roundTrip(t, p).Meta, want)

		p.Meta = page.Meta{ID: want.ID, Type: want.Type, Level: want.Level}
		requireMetaBits(t, "zeroed meta", roundTrip(t, p).Meta, want)
	}
}

// TestCodecEntryCounts round-trips the edge sizes: an empty page (whose
// MBR is the ±Inf EmptyRect), a single entry, and a full page.
func TestCodecEntryCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{0, 1, MaxEntries} {
		p := makePage(7, page.TypeDirectory, 1, n, rng)
		got := roundTrip(t, p)
		requireMetaBits(t, "round trip", got.Meta, p.Meta)
		q := &page.Page{Meta: got.Meta, Entries: got.Entries}
		q.Recompute()
		requireMetaBits(t, "decoded vs recomputed", got.Meta, q.Meta)
		if len(got.Entries) != n {
			t.Fatalf("n=%d: decoded %d entries", n, len(got.Entries))
		}
		for i := range p.Entries {
			if got.Entries[i] != p.Entries[i] {
				t.Fatalf("n=%d: entry %d mismatch", n, i)
			}
		}
	}
	empty := roundTrip(t, page.New(3, page.TypeData, 0, 0))
	if !math.IsInf(empty.MBR.MinX, 1) || !math.IsInf(empty.MBR.MaxY, -1) || !empty.MBR.IsEmpty() {
		t.Fatalf("empty page MBR = %+v, want EmptyRect", empty.MBR)
	}
}

// TestEncodePageLeavesPageUnchanged checks that encoding only reads the
// page: the write-back worker encodes pages that clients still see.
func TestEncodePageLeavesPageUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p := densePage(5, page.TypeData, 0, 40, rng)
	p.RecomputeFast() // stale Meta: encoding must not "fix" it in place
	meta := p.Meta
	entries := append([]page.Entry(nil), p.Entries...)
	data, length, capacity := &p.Entries[0], len(p.Entries), cap(p.Entries)

	buf := make([]byte, PageSize)
	if err := EncodePage(p, buf); err != nil {
		t.Fatal(err)
	}
	requireMetaBits(t, "page after encode", p.Meta, meta)
	if &p.Entries[0] != data || len(p.Entries) != length || cap(p.Entries) != capacity {
		t.Fatal("EncodePage replaced or resized the entry slice")
	}
	for i := range entries {
		if p.Entries[i] != entries[i] {
			t.Fatalf("EncodePage changed entry %d", i)
		}
	}
}

// TestDecodeRejectsFormatVersion feeds buffers with a version byte
// other than formatVersion: 0 (the header-only layout, and any
// never-written slot) and versions from the future.
func TestDecodeRejectsFormatVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	buf := make([]byte, PageSize)
	if err := EncodePage(makePage(4, page.TypeData, 0, 3, rng), buf); err != nil {
		t.Fatal(err)
	}
	if buf[9] != formatVersion {
		t.Fatalf("version byte = %d, want %d", buf[9], formatVersion)
	}
	for _, v := range []byte{0, formatVersion + 1, 0xFF} {
		bad := append([]byte(nil), buf...)
		bad[9] = v
		_, err := DecodePage(bad)
		if err == nil {
			t.Fatalf("version %d: decode succeeded, want an error", v)
		}
		if want := fmt.Sprintf("version %d", v); !strings.Contains(err.Error(), want) {
			t.Errorf("version %d: error %q does not name the version", v, err)
		}
	}
}

// TestCodecLayout pins the format-1 sizes that docs and trace spans
// quote: a 72-byte header and 83 entries per 4 KiB page.
func TestCodecLayout(t *testing.T) {
	if headerSize != 72 || MaxEntries != 83 {
		t.Fatalf("headerSize = %d, MaxEntries = %d; want 72, 83", headerSize, MaxEntries)
	}
	p := page.New(1, page.TypeDirectory, 1, 51)
	for i := 0; i < 51; i++ {
		p.Append(page.Entry{MBR: geom.NewRect(0, 0, 1, 1), Child: page.ID(i + 2)})
	}
	if got := PageBytes(p); got != 72+51*48 {
		t.Fatalf("PageBytes(51 entries) = %d, want %d", got, 72+51*48)
	}
}

// TestFileStoreRejectsUnwrittenSlot reads an allocated page whose slot
// was never written: its zero bytes carry version 0, which the decoder
// rejects instead of returning an empty page.
func TestFileStoreRejectsUnwrittenSlot(t *testing.T) {
	fs, err := CreateFileStore(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	unwritten, id := fs.Allocate(), fs.Allocate()
	if err := fs.Write(makePage(id, page.TypeData, 0, 2, rand.New(rand.NewSource(41)))); err != nil {
		t.Fatal(err)
	}
	_, err = fs.Read(unwritten)
	if err == nil || !strings.Contains(err.Error(), "version 0") {
		t.Fatalf("read of never-written page %d: err = %v, want a version-0 error", unwritten, err)
	}
}
