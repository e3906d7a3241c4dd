package memory

import (
	"bytes"
	"testing"
)

// snapshotBytes renders the group's SnapshotSegments as one contiguous
// frame — the byte stream a sender ships — and counts the page segments
// referenced in place.
func snapshotBytes(g *Group) (frame []byte, pages int) {
	var segs [][]byte
	g.SnapshotSegments(func(n int) []byte {
		b := make([]byte, n)
		segs = append(segs, b)
		return b
	}, func(p []byte) {
		segs = append(segs, p)
		pages++
	})
	return bytes.Join(segs, nil), pages
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	src := NewManager(128, 0)
	g := src.NewGroup()
	var ptrs []Ptr
	var want [][]byte
	for i := 0; i < 40; i++ {
		b := bytes.Repeat([]byte{byte(i)}, 1+i*7%90)
		ptrs = append(ptrs, g.Append(b))
		want = append(want, b)
	}
	// Oversized single object gets a dedicated page.
	big := bytes.Repeat([]byte{0xee}, 500)
	ptrs = append(ptrs, g.Append(big))
	want = append(want, big)

	frame, pages := snapshotBytes(g)
	if pages != g.NumPages() {
		t.Errorf("snapshot referenced %d pages in place, group has %d", pages, g.NumPages())
	}

	// Restore into a different manager with a different page size.
	dst := NewManager(4096, 0)
	rd := bytes.NewReader(frame)
	r, err := dst.RestoreGroup(rd)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Len() != 0 {
		t.Errorf("restore left %d of %d frame bytes unread", rd.Len(), len(frame))
	}
	if r.NumPages() != g.NumPages() || r.Len() != g.Len() {
		t.Fatalf("restored %d pages / %d bytes, want %d / %d",
			r.NumPages(), r.Len(), g.NumPages(), g.Len())
	}
	// Every source pointer addresses the identical segment in the restored
	// group: page boundaries survive the wire.
	for i, ptr := range ptrs {
		if got := r.Bytes(ptr, len(want[i])); !bytes.Equal(got, want[i]) {
			t.Fatalf("segment %d at %v differs after restore", i, ptr)
		}
	}
	// Accounting: the restored pages are charged to dst, released on
	// Release, and dst goes back to zero.
	if dst.InUse() == 0 {
		t.Error("restore charged no bytes to the destination manager")
	}
	r.Release()
	if dst.InUse() != 0 {
		t.Errorf("destination manager still charges %d bytes after release", dst.InUse())
	}
	if st := dst.Stats(); st.LiveGroups != 0 {
		t.Errorf("destination has %d live groups after release", st.LiveGroups)
	}
	g.Release()
	if src.InUse() != 0 {
		t.Errorf("source manager still charges %d bytes", src.InUse())
	}
}

func TestSnapshotEmptyGroup(t *testing.T) {
	m := NewManager(64, 0)
	g := m.NewGroup()
	defer g.Release()
	frame, _ := snapshotBytes(g)
	r, err := m.RestoreGroup(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if r.NumPages() != 0 || r.Len() != 0 {
		t.Errorf("restored empty group has %d pages / %d bytes", r.NumPages(), r.Len())
	}
	r.Release()
}

func TestRestoreGroupTruncatedAndCorrupt(t *testing.T) {
	m := NewManager(64, 0)
	g := m.NewGroup()
	g.Append(bytes.Repeat([]byte{1}, 50))
	g.Append(bytes.Repeat([]byte{2}, 50))
	full, _ := snapshotBytes(g)
	g.Release()

	for cut := 0; cut < len(full); cut += 7 {
		if _, err := m.RestoreGroup(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d bytes restored without error", cut, len(full))
		}
	}
	// Implausible page count must be rejected before allocating.
	if _, err := m.RestoreGroup(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})); err == nil {
		t.Error("corrupt page count restored without error")
	}
	if m.InUse() != 0 {
		t.Errorf("failed restores leaked %d bytes", m.InUse())
	}
	if st := m.Stats(); st.LiveGroups != 0 {
		t.Errorf("failed restores leaked %d live groups", st.LiveGroups)
	}
}

// TestSnapshotAfterAdoption: a group that adopted pages snapshots its full
// logical page array (owned + adopted) and restores as a plain owned group.
func TestSnapshotAfterAdoption(t *testing.T) {
	m := NewManager(64, 0)
	a := m.NewGroup()
	pa := a.Append([]byte("alpha"))
	b := m.NewGroup()
	pb := b.Append([]byte("bravo"))
	base := a.AdoptPages(b)
	b.Release()

	frame, _ := snapshotBytes(a)
	r, err := m.RestoreGroup(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(r.Bytes(pa, 5)); got != "alpha" {
		t.Errorf("owned segment = %q", got)
	}
	if got := string(r.Bytes(pb.Rebase(base), 5)); got != "bravo" {
		t.Errorf("adopted segment = %q", got)
	}
	r.Release()
	a.Release()
	if m.InUse() != 0 {
		t.Errorf("leaked %d bytes", m.InUse())
	}
}
