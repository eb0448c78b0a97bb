package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/page"
)

// Binary page layout (little-endian), format version 1, used by
// FileStore. Every page occupies exactly PageSize bytes on disk:
//
//	offset  size  field
//	0       8     page ID
//	8       1     page type
//	9       1     format version (formatVersion)
//	10      2     level
//	12      4     number of entries n
//	16      32    page MBR: MinX MinY MaxX MaxY (float64 each)
//	48      8     EntryAreaSum   (criterion EA)
//	56      8     EntryMarginSum (criterion EM)
//	64      8     EntryOverlap   (criterion EO)
//	72      48·n  entries: MinX MinY MaxX MaxY (float64 each), Child (8), ObjID (8)
//
// The derived Meta statistics (bytes 16–71) are stored rather than
// recomputed on decode. Paper §2.3 notes that area and margin cost almost
// nothing at load time, but that for the costlier entry overlap — an
// O(n²) pass over the entries — "storing this information on the page may
// be worthwhile". Storing all four keeps a read at O(n). EncodePage
// derives the values from the entries it serializes (page.Derived), never
// from the page's own Meta, which RecomputeFast leaves with a zero
// EntryOverlap; so a decoded page carries exactly the Meta that Recompute
// gives over its entries, bit for bit.
//
// A buffer whose version byte is not formatVersion — including 0, the
// version of the earlier header-only layout and of a never-written slot —
// is rejected.
const (
	// PageSize is the on-disk size of one page in bytes. 4 KiB holds the
	// paper's maximum fan-out (51 directory entries = 72+51·48 = 2520 B)
	// with room to spare.
	PageSize = 4096

	// formatVersion is the page format EncodePage writes and the only one
	// DecodePage accepts.
	formatVersion = 1

	headerSize = 72
	entrySize  = 48

	// MaxEntries is the largest entry count a PageSize page can hold.
	MaxEntries = (PageSize - headerSize) / entrySize
)

// EncodePage serializes p into buf, which must be at least PageSize bytes.
// The stored statistics are derived from p's entries; p itself is only
// read, so pages shared with concurrent readers may be encoded.
func EncodePage(p *page.Page, buf []byte) error {
	if len(buf) < PageSize {
		return fmt.Errorf("storage: encode buffer too small: %d < %d", len(buf), PageSize)
	}
	if len(p.Entries) > MaxEntries {
		return fmt.Errorf("storage: page %d has %d entries, max %d", p.ID, len(p.Entries), MaxEntries)
	}
	m := p.Derived()
	for i := range buf[:PageSize] {
		buf[i] = 0
	}
	binary.LittleEndian.PutUint64(buf[0:], uint64(m.ID))
	buf[8] = byte(m.Type)
	buf[9] = formatVersion
	binary.LittleEndian.PutUint16(buf[10:], uint16(m.Level))
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(p.Entries)))
	putRect(buf[16:], m.MBR)
	binary.LittleEndian.PutUint64(buf[48:], math.Float64bits(m.EntryAreaSum))
	binary.LittleEndian.PutUint64(buf[56:], math.Float64bits(m.EntryMarginSum))
	binary.LittleEndian.PutUint64(buf[64:], math.Float64bits(m.EntryOverlap))
	off := headerSize
	for _, e := range p.Entries {
		putRect(buf[off:], e.MBR)
		binary.LittleEndian.PutUint64(buf[off+32:], uint64(e.Child))
		binary.LittleEndian.PutUint64(buf[off+40:], e.ObjID)
		off += entrySize
	}
	return nil
}

// DecodePage deserializes a page from buf (at least PageSize bytes),
// taking its derived Meta fields from the header.
func DecodePage(buf []byte) (*page.Page, error) {
	if len(buf) < PageSize {
		return nil, fmt.Errorf("storage: decode buffer too small: %d < %d", len(buf), PageSize)
	}
	id := page.ID(binary.LittleEndian.Uint64(buf[0:]))
	if v := buf[9]; v != formatVersion {
		return nil, fmt.Errorf("storage: page %d: unsupported page format version %d (want %d)", id, v, formatVersion)
	}
	typ := page.Type(buf[8])
	level := int(binary.LittleEndian.Uint16(buf[10:]))
	n := int(binary.LittleEndian.Uint32(buf[12:]))
	if n < 0 || n > MaxEntries {
		return nil, fmt.Errorf("storage: corrupt page %d: %d entries", id, n)
	}
	p := page.New(id, typ, level, n)
	p.NumEntries = n
	p.MBR = getRect(buf[16:])
	p.EntryAreaSum = math.Float64frombits(binary.LittleEndian.Uint64(buf[48:]))
	p.EntryMarginSum = math.Float64frombits(binary.LittleEndian.Uint64(buf[56:]))
	p.EntryOverlap = math.Float64frombits(binary.LittleEndian.Uint64(buf[64:]))
	off := headerSize
	for i := 0; i < n; i++ {
		p.Append(page.Entry{
			MBR:   getRect(buf[off:]),
			Child: page.ID(binary.LittleEndian.Uint64(buf[off+32:])),
			ObjID: binary.LittleEndian.Uint64(buf[off+40:]),
		})
		off += entrySize
	}
	return p, nil
}

// putRect writes r as four float64s into the first 32 bytes of b.
func putRect(b []byte, r geom.Rect) {
	binary.LittleEndian.PutUint64(b[0:], math.Float64bits(r.MinX))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(r.MinY))
	binary.LittleEndian.PutUint64(b[16:], math.Float64bits(r.MaxX))
	binary.LittleEndian.PutUint64(b[24:], math.Float64bits(r.MaxY))
}

// getRect reads the rectangle putRect wrote.
func getRect(b []byte) geom.Rect {
	return geom.Rect{
		MinX: math.Float64frombits(binary.LittleEndian.Uint64(b[0:])),
		MinY: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
		MaxX: math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
		MaxY: math.Float64frombits(binary.LittleEndian.Uint64(b[24:])),
	}
}
