package memory

import (
	"encoding/binary"
	"fmt"
	"io"

	"deca/internal/serial"
)

// Raw page I/O (Appendix C): decomposed data bytes are written to and read
// from disk directly, with no serialization step. The on-disk format is
// one batched header — magic, page count, then every page length — followed
// by the raw page bytes back to back, so a swapped-out group restores with
// identical pointers. Batching the lengths into the header means a spill
// is one small write plus one large write per page, and a restore learns
// every page size up front (one header read, then straight bulk reads).

const spillMagic = uint32(0xDEC0DE01)

// WriteTo writes the group's pages to w in the raw spill format. The
// whole header (magic + count + per-page lengths) goes out as a single
// write, then each page as one bulk write. It returns the number of
// bytes written.
func (g *Group) WriteTo(w io.Writer) (int64, error) {
	g.checkLive()
	var written int64
	hdr := make([]byte, 8+4*len(g.pages))
	binary.LittleEndian.PutUint32(hdr[0:4], spillMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(g.pages)))
	for i, p := range g.pages {
		binary.LittleEndian.PutUint32(hdr[8+4*i:], uint32(len(p)))
	}
	n, err := w.Write(hdr)
	written += int64(n)
	if err != nil {
		return written, err
	}
	for _, p := range g.pages {
		n, err = w.Write(p)
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// ReadGroupFrom reads a group in the spill format from r, allocating its
// pages from m. Pointers recorded before the spill remain valid against
// the restored group. The header's lengths are not trusted for sizing:
// the length table grows as its bytes arrive and an oversized page is
// read before its page is taken, so a corrupt header fails on a short
// read instead of after a header-sized allocation.
func ReadGroupFrom(m *Manager, r io.Reader) (*Group, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("memory: reading spill header: %w", err)
	}
	if got := binary.LittleEndian.Uint32(hdr[0:4]); got != spillMagic {
		return nil, fmt.Errorf("memory: bad spill magic %#x", got)
	}
	// The length table, like a page, must stay below maxSnapshotPage bytes.
	numPages := binary.LittleEndian.Uint32(hdr[4:8])
	if 4*uint64(numPages) >= maxSnapshotPage {
		return nil, fmt.Errorf("memory: implausible spill page count %d", numPages)
	}
	lens, err := serial.ReadGrowing(r, 4*int(numPages))
	if err != nil {
		return nil, fmt.Errorf("memory: reading spill page lengths: %w", err)
	}
	g := m.NewGroup()
	for i := range int(numPages) {
		pageLen := binary.LittleEndian.Uint32(lens[4*i:])
		if pageLen > maxSnapshotPage {
			g.Release()
			return nil, fmt.Errorf("memory: spill page %d: implausible length %d", i, pageLen)
		}
		if err := g.readPage(r, int(pageLen)); err != nil {
			g.Release()
			return nil, fmt.Errorf("memory: reading spill page %d: %w", i, err)
		}
	}
	return g, nil
}
