package memory

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// spillHeader builds a spill-format header claiming count pages with
// the given lengths (fewer lengths than count leaves the table short).
func spillHeader(count uint32, lens ...uint32) []byte {
	b := binary.LittleEndian.AppendUint32(nil, spillMagic)
	b = binary.LittleEndian.AppendUint32(b, count)
	for _, n := range lens {
		b = binary.LittleEndian.AppendUint32(b, n)
	}
	return b
}

// TestReadGroupFromSizesFromArrivingBytes feeds ReadGroupFrom headers
// whose counts and lengths the body does not back: each must fail on the
// short read without taking a page sized from the header, and leave the
// manager's ledgers empty.
func TestReadGroupFromSizesFromArrivingBytes(t *testing.T) {
	for name, data := range map[string][]byte{
		"page count 2^31":           spillHeader(1 << 31),
		"page count 2^30":           spillHeader(1<<30, 8, 8),
		"page count 2^28":           spillHeader(1<<28, 8, 8),
		"64 MiB page, 5-byte body":  append(spillHeader(1, 64<<20), 1, 2, 3, 4, 5),
		"4 GiB page, empty body":    spillHeader(1, 1<<32-1),
		"second page short of body": append(spillHeader(2, 8, 8), make([]byte, 12)...),
	} {
		t.Run(name, func(t *testing.T) {
			m := NewManager(64, 0)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			g, err := ReadGroupFrom(m, bytes.NewReader(data))
			runtime.ReadMemStats(&after)
			if err == nil {
				g.Release()
				t.Fatal("a header the body does not back restored without error")
			}
			if st := m.Stats(); st.LiveGroups != 0 || st.BytesInUse != 0 {
				t.Errorf("failed restore left %d groups, %d bytes", st.LiveGroups, st.BytesInUse)
			}
			// The length table's first read buffer is at most 1 MiB.
			if n := after.TotalAlloc - before.TotalAlloc; n > 4<<20 {
				t.Errorf("failed restore allocated %d bytes from a %d-byte input", n, len(data))
			}
		})
	}
}

// FuzzReadGroupFrom: any byte string must either restore a group or
// return an error — never panic, never allocate from a length it has not
// read the bytes for — and the manager's ledgers must be empty once the
// result, if any, is released. A restored group re-spills to exactly the
// bytes it consumed.
func FuzzReadGroupFrom(f *testing.F) {
	src := NewManager(64, 0)
	g := src.NewGroup()
	for i := 0; i < 20; i++ {
		g.Append(bytes.Repeat([]byte{byte(i)}, 1+i%9))
	}
	g.Append(bytes.Repeat([]byte{0xAB}, 150)) // an oversized page
	var spill bytes.Buffer
	if _, err := g.WriteTo(&spill); err != nil {
		f.Fatal(err)
	}
	g.Release()
	frame := spill.Bytes()
	f.Add(frame)
	for cut := 0; cut < len(frame); cut += 7 {
		f.Add(frame[:cut])
	}
	f.Add(spillHeader(1 << 31))
	f.Add(spillHeader(1<<30, 8))
	f.Add(spillHeader(1<<28, 8))
	f.Add(spillHeader(1, 1<<32-1))

	f.Fuzz(func(t *testing.T, data []byte) {
		m := NewManager(64, 0)
		got, err := ReadGroupFrom(m, bytes.NewReader(data))
		if err == nil {
			var again bytes.Buffer
			if _, err := got.WriteTo(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(data, again.Bytes()) {
				t.Fatal("restored group does not re-spill to the bytes it consumed")
			}
			got.Release()
		}
		if st := m.Stats(); st.LiveGroups != 0 || st.BytesInUse != 0 {
			t.Fatalf("restore leaked %d groups, %d bytes", st.LiveGroups, st.BytesInUse)
		}
	})
}
