package shuffle

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"

	"deca/internal/decompose"
	"deca/internal/memory"
)

// Fuzz targets for the Deca wire decoders: any byte string must either
// decode or return an error — never panic, never allocate from a count
// it has not read the bytes for — and the destination manager's ledgers
// (live groups, in-use bytes) and the spill directory must be back to
// empty once the result, if any, is released. Keys and values use the
// fixed-size int64 codec: the decoders validate fixed key lengths and
// pointer bounds, while the bytes of a variable-size key are the codec's
// input contract (see checkKeyLen).

// wireSeeds adds a fuzz corpus built around one valid frame: the frame
// itself, its cuts at every 11th byte (TestWireTruncation's), and a
// header of the frame's kind claiming maxWireCount entries.
func wireSeeds(f *testing.F, frame []byte) {
	f.Add(frame)
	for cut := 0; cut < len(frame); cut += 11 {
		f.Add(frame[:cut])
	}
	f.Add(binary.AppendUvarint([]byte{frame[0]}, maxWireCount))
}

// checkWireLedgers fails if a decode left pages, groups or spill files
// behind after its result was released.
func checkWireLedgers(t *testing.T, mem *memory.Manager, dir string) {
	t.Helper()
	if st := mem.Stats(); st.LiveGroups != 0 || mem.InUse() != 0 {
		t.Fatalf("decode leaked %d groups, %d bytes", st.LiveGroups, mem.InUse())
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Fatalf("decode left %d spill files (%v)", len(left), err)
	}
}

func FuzzDecodeDecaAgg(f *testing.F) {
	add := func(a, b int64) int64 { return a + b }
	src := memory.NewManager(256, 0)
	b, err := NewDecaAgg[int64, int64](src, add, decompose.Int64Codec{}, decompose.Int64Codec{}, f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	for i := int64(0); i < 60; i++ {
		b.Put(i%17, i)
	}
	if err := b.Spill(); err != nil {
		f.Fatal(err)
	}
	b.Put(3, 4)
	var frame bytes.Buffer
	if err := b.EncodeWire(&frame); err != nil {
		f.Fatal(err)
	}
	b.Release()
	wireSeeds(f, frame.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		mem := memory.NewManager(256, 0)
		dir := t.TempDir()
		got, err := DecodeDecaAgg[int64, int64](bytes.NewReader(data), mem, add,
			decompose.Int64Codec{}, decompose.Int64Codec{}, dir)
		if err == nil {
			got.Release()
		}
		checkWireLedgers(t, mem, dir)
	})
}

func FuzzDecodeDecaGroup(f *testing.F) {
	src := memory.NewManager(256, 0)
	b := NewDecaGroup[int64, int64](src, decompose.Int64Codec{}, decompose.Int64Codec{}, f.TempDir())
	for i := int64(0); i < 60; i++ {
		b.Put(i%7, i)
	}
	if err := b.Spill(); err != nil {
		f.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		b.Put(i%5, -i)
	}
	var frame bytes.Buffer
	if err := b.EncodeWire(&frame); err != nil {
		f.Fatal(err)
	}
	b.Release()
	wireSeeds(f, frame.Bytes())
	// One key whose pointer array claims maxWireCount entries: the array
	// must grow with the bytes that actually follow, not the claim.
	huge := binary.AppendUvarint([]byte{wireDecaGroup}, 1)
	huge = binary.AppendUvarint(huge, 8)
	huge = binary.LittleEndian.AppendUint64(huge, 42)
	huge = binary.AppendUvarint(huge, maxWireCount)
	f.Add(append(huge, make([]byte, 8*ptrChunk+3)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		mem := memory.NewManager(256, 0)
		dir := t.TempDir()
		got, err := DecodeDecaGroup[int64, int64](bytes.NewReader(data), mem,
			decompose.Int64Codec{}, decompose.Int64Codec{}, dir)
		if err == nil {
			got.Release()
		}
		checkWireLedgers(t, mem, dir)
	})
}

func FuzzDecodeDecaSort(f *testing.F) {
	less := func(a, b int64) bool { return a < b }
	src := memory.NewManager(256, 0)
	b := NewDecaSort[int64, int64](src, less, decompose.Int64Codec{}, decompose.Int64Codec{}, f.TempDir())
	for i := int64(0); i < 60; i++ {
		b.Put(60-i, i)
	}
	if err := b.Spill(); err != nil {
		f.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		b.Put(i, -i)
	}
	var frame bytes.Buffer
	if err := b.EncodeWire(&frame); err != nil {
		f.Fatal(err)
	}
	b.Release()
	wireSeeds(f, frame.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		mem := memory.NewManager(256, 0)
		dir := t.TempDir()
		got, err := DecodeDecaSort[int64, int64](bytes.NewReader(data), mem, less,
			decompose.Int64Codec{}, decompose.Int64Codec{}, dir)
		if err == nil {
			got.Release()
		}
		checkWireLedgers(t, mem, dir)
	})
}
