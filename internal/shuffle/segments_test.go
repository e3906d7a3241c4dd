package shuffle

import (
	"bytes"
	"io"
	"reflect"
	"slices"
	"testing"

	"deca/internal/decompose"
	"deca/internal/memory"
)

// decaContainer is what the three Deca shapes share on the wire.
type decaContainer interface {
	segmentEncoder
	EncodeWire(w io.Writer) error
	Release()
}

// drainContents drains a Deca container into a comparable value. Group
// value lists are sorted: merging a spilled run reorders them.
func drainContents(t *testing.T, c decaContainer) any {
	t.Helper()
	var out any
	var err error
	switch b := c.(type) {
	case *DecaAgg[int64, int64]:
		m := map[int64]int64{}
		err = b.Drain(func(k, v int64) bool { m[k] = v; return true })
		out = m
	case *DecaGroup[int64, int64]:
		m := map[int64][]int64{}
		err = b.Drain(func(k int64, vs []int64) bool { m[k] = slices.Sorted(slices.Values(vs)); return true })
		out = m
	case *DecaSort[int64, int64]:
		var ps []decompose.Pair[int64, int64]
		err = b.DrainSorted(func(k, v int64) bool {
			ps = append(ps, decompose.Pair[int64, int64]{Key: k, Value: v})
			return true
		})
		out = ps
	default:
		t.Fatalf("unexpected container %T", c)
	}
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDerivedEncodeWireSpillRoundTrip: a Deca container's EncodeWire is
// its EncodeSegments written out. For every Deca shape with a spill run
// in the frame, the written frame has the segment frame's length and
// carries the run, decodes to the source's contents, and leaves no page
// group live on either side once the containers are released
// (EncodeWire releases the group its segments retained).
func TestDerivedEncodeWireSpillRoundTrip(t *testing.T) {
	add := func(a, b int64) int64 { return a + b }
	less := func(a, b int64) bool { return a < b }
	i64 := decompose.Int64Codec{}
	shapes := []struct {
		name   string
		build  func(mem *memory.Manager, dir string) (decaContainer, error)
		decode func(r WireReader, mem *memory.Manager, dir string) (decaContainer, error)
	}{
		{"agg", func(mem *memory.Manager, dir string) (decaContainer, error) {
			return NewDecaAgg[int64, int64](mem, add, i64, i64, dir)
		}, func(r WireReader, mem *memory.Manager, dir string) (decaContainer, error) {
			return DecodeDecaAgg[int64, int64](r, mem, add, i64, i64, dir)
		}},
		{"group", func(mem *memory.Manager, dir string) (decaContainer, error) {
			return NewDecaGroup[int64, int64](mem, i64, i64, dir), nil
		}, func(r WireReader, mem *memory.Manager, dir string) (decaContainer, error) {
			return DecodeDecaGroup[int64, int64](r, mem, i64, i64, dir)
		}},
		{"sort", func(mem *memory.Manager, dir string) (decaContainer, error) {
			return NewDecaSort[int64, int64](mem, less, i64, i64, dir), nil
		}, func(r WireReader, mem *memory.Manager, dir string) (decaContainer, error) {
			return DecodeDecaSort[int64, int64](r, mem, less, i64, i64, dir)
		}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			dir := t.TempDir()
			srcMem, dstMem := memory.NewManager(256, 0), memory.NewManager(1024, 0)
			src, err := sh.build(srcMem, dir)
			if err != nil {
				t.Fatal(err)
			}
			// One spilled run plus resident records.
			put := src.(interface{ Put(int64, int64) }).Put
			for i := int64(0); i < 300; i++ {
				put(i%29, i)
			}
			if err := src.(interface{ Spill() error }).Spill(); err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < 100; i++ {
				put(i%13, -i)
			}

			var frame bytes.Buffer
			if err := src.EncodeWire(&frame); err != nil {
				t.Fatal(err)
			}
			fs, err := src.EncodeSegments()
			if err != nil {
				t.Fatal(err)
			}
			if fs.FileBytes() == 0 {
				t.Error("frame carries no spill run")
			}
			if fs.Len() != int64(frame.Len()) {
				t.Errorf("EncodeWire wrote %d bytes, the segment frame is %d", frame.Len(), fs.Len())
			}
			fs.Release()

			got, err := sh.decode(bytes.NewReader(frame.Bytes()), dstMem, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(drainContents(t, got), drainContents(t, src)) {
				t.Error("decoded container drains differently from the source")
			}
			got.Release()
			src.Release()
			for side, m := range map[string]*memory.Manager{"source": srcMem, "destination": dstMem} {
				if st := m.Stats(); st.LiveGroups != 0 || m.InUse() != 0 {
					t.Errorf("%s: %d live groups, %d bytes after release", side, st.LiveGroups, m.InUse())
				}
			}
		})
	}
}
