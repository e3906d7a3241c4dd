package shuffle

import (
	"bytes"
	"testing"

	"deca/internal/decompose"
	"deca/internal/memory"
)

// Decoding a Deca frame must cost a bounded number of allocations per
// frame, not one or more per key: keys and pointer chunks stage through
// one per-frame buffer, pointer arrays are carved from shared slabs, and
// the key table is presized. The only allocations allowed to grow with
// the key count are the hash table's own (a Go map allocates one table
// per ~1k slots), so each decode is measured against a presized map
// filled with the same keys, and the remainder must stay a small
// per-frame constant at 1k and 10k keys alike.

// maxDecodeOverhead is the per-frame allocation allowance on top of the
// key table: the buffer header, its page group and page list, the staging
// buffer, slabs, the reader.
const maxDecodeOverhead = 16

// allocKeyCounts are the frame sizes the allocation tests compare.
var allocKeyCounts = []int{1_000, 10_000}

// valuesPerKey is how many values each DecaGroup key holds.
const valuesPerKey = 3

// mapAllocs measures filling a map presized to n with n int64 keys.
func mapAllocs[V any](n int) float64 {
	var zero V
	return testing.AllocsPerRun(5, func() {
		m := make(map[int64]V, n)
		for k := int64(0); k < int64(n); k++ {
			m[k] = zero
		}
	})
}

// checkDecodeAllocs asserts the decode's allocations above the key
// table's stay under the per-frame allowance.
func checkDecodeAllocs(t *testing.T, name string, n int, decode, table float64) {
	t.Helper()
	over := decode - table
	t.Logf("%s n=%d: %.0f allocs/frame (key table %.0f, overhead %.0f)", name, n, decode, table, over)
	if over > maxDecodeOverhead {
		t.Errorf("%s with %d keys: %.0f allocations beyond the key table, want <= %d",
			name, n, over, maxDecodeOverhead)
	}
}

func decaAggFrame(t *testing.T, n int) []byte {
	t.Helper()
	mem := memory.NewManager(0, 0)
	add := func(a, b int64) int64 { return a + b }
	b, err := NewDecaAgg[int64, int64](mem, add, decompose.Int64Codec{}, decompose.Int64Codec{}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	for k := int64(0); k < int64(n); k++ {
		b.Put(k, k)
	}
	var frame bytes.Buffer
	if err := b.EncodeWire(&frame); err != nil {
		t.Fatal(err)
	}
	return frame.Bytes()
}

func decaGroupFrame(t *testing.T, n int) []byte {
	t.Helper()
	mem := memory.NewManager(0, 0)
	b := NewDecaGroup[int64, int64](mem, decompose.Int64Codec{}, decompose.Int64Codec{}, "")
	defer b.Release()
	for k := int64(0); k < int64(n); k++ {
		for v := int64(0); v < valuesPerKey; v++ {
			b.Put(k, k*valuesPerKey+v)
		}
	}
	var frame bytes.Buffer
	if err := b.EncodeWire(&frame); err != nil {
		t.Fatal(err)
	}
	return frame.Bytes()
}

func decaSortFrame(t *testing.T, n int) []byte {
	t.Helper()
	mem := memory.NewManager(0, 0)
	b := NewDecaSort[int64, int64](mem, func(a, b int64) bool { return a < b },
		decompose.Int64Codec{}, decompose.Int64Codec{}, "")
	defer b.Release()
	for k := int64(0); k < int64(n); k++ {
		b.Put(int64(n)-k, k)
	}
	var frame bytes.Buffer
	if err := b.EncodeWire(&frame); err != nil {
		t.Fatal(err)
	}
	return frame.Bytes()
}

func TestDecodeDecaAggAllocs(t *testing.T) {
	add := func(a, b int64) int64 { return a + b }
	for _, n := range allocKeyCounts {
		frame := decaAggFrame(t, n)
		mem := memory.NewManager(0, 0)
		allocs := testing.AllocsPerRun(5, func() {
			b, err := DecodeDecaAgg[int64, int64](bytes.NewReader(frame), mem, add,
				decompose.Int64Codec{}, decompose.Int64Codec{}, "")
			if err != nil {
				t.Fatal(err)
			}
			if b.Len() != n {
				t.Fatalf("decoded %d keys, want %d", b.Len(), n)
			}
			b.Release()
		})
		checkDecodeAllocs(t, "DecaAgg", n, allocs, mapAllocs[memory.Ptr](n))
	}
}

func TestDecodeDecaGroupAllocs(t *testing.T) {
	for _, n := range allocKeyCounts {
		frame := decaGroupFrame(t, n)
		mem := memory.NewManager(0, 0)
		allocs := testing.AllocsPerRun(5, func() {
			b, err := DecodeDecaGroup[int64, int64](bytes.NewReader(frame), mem,
				decompose.Int64Codec{}, decompose.Int64Codec{}, "")
			if err != nil {
				t.Fatal(err)
			}
			if b.Len() != n || b.Values() != n*valuesPerKey {
				t.Fatalf("decoded %d keys / %d values, want %d / %d", b.Len(), b.Values(), n, n*valuesPerKey)
			}
			b.Release()
		})
		checkDecodeAllocs(t, "DecaGroup", n, allocs, mapAllocs[[]memory.Ptr](n))
	}
}

func TestDecodeDecaSortAllocs(t *testing.T) {
	less := func(a, b int64) bool { return a < b }
	for _, n := range allocKeyCounts {
		frame := decaSortFrame(t, n)
		mem := memory.NewManager(0, 0)
		allocs := testing.AllocsPerRun(5, func() {
			b, err := DecodeDecaSort[int64, int64](bytes.NewReader(frame), mem, less,
				decompose.Int64Codec{}, decompose.Int64Codec{}, "")
			if err != nil {
				t.Fatal(err)
			}
			if b.Len() != n {
				t.Fatalf("decoded %d records, want %d", b.Len(), n)
			}
			b.Release()
		})
		checkDecodeAllocs(t, "DecaSort", n, allocs, 0)
	}
}

// A decoded DecaGroup's pointer arrays share slabs; growing one key's
// array (Put, or MergeFrom appending into an existing key) must copy it
// out, never overwrite its neighbours' pointers.
func TestDecodeDecaGroupSlabAliasing(t *testing.T) {
	const n = 64
	frame := decaGroupFrame(t, n)
	mem := memory.NewManager(0, 0)
	decode := func() *DecaGroup[int64, int64] {
		t.Helper()
		b, err := DecodeDecaGroup[int64, int64](bytes.NewReader(frame), mem,
			decompose.Int64Codec{}, decompose.Int64Codec{}, "")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	collect := func(b *DecaGroup[int64, int64]) map[int64][]int64 {
		out := map[int64][]int64{}
		if err := b.Drain(func(k int64, vs []int64) bool {
			out[k] = vs
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	checkOthers := func(what string, got map[int64][]int64, grown int64) {
		t.Helper()
		for k := int64(0); k < n; k++ {
			if k == grown {
				continue
			}
			vs := got[k]
			if len(vs) != valuesPerKey {
				t.Fatalf("%s: key %d has %d values, want %d", what, k, len(vs), valuesPerKey)
			}
			for i, v := range vs {
				if want := k*valuesPerKey + int64(i); v != want {
					t.Fatalf("%s into key %d changed key %d value %d: %d, want %d", what, grown, k, i, v, want)
				}
			}
		}
	}

	// Put grows one key in the middle of the slab.
	b := decode()
	const grown = n / 2
	for i := 0; i < 10; i++ {
		b.Put(grown, -1)
	}
	got := collect(b)
	checkOthers("Put", got, grown)
	if len(got[grown]) != valuesPerKey+10 {
		t.Fatalf("grown key has %d values, want %d", len(got[grown]), valuesPerKey+10)
	}
	b.Release()

	// MergeFrom appends a second decoded frame's arrays onto existing
	// keys of a decoded buffer: every key grows, none may corrupt another.
	dst, src := decode(), decode()
	if err := dst.MergeFrom(src); err != nil {
		t.Fatal(err)
	}
	src.Release()
	merged := collect(dst)
	for k := int64(0); k < n; k++ {
		vs := merged[k]
		if len(vs) != 2*valuesPerKey {
			t.Fatalf("merged key %d has %d values, want %d", k, len(vs), 2*valuesPerKey)
		}
		for i, v := range vs {
			if want := k*valuesPerKey + int64(i%valuesPerKey); v != want {
				t.Fatalf("merged key %d value %d: %d, want %d", k, i, v, want)
			}
		}
	}
	dst.Release()
	if st := mem.Stats(); st.LiveGroups != 0 || mem.InUse() != 0 {
		t.Errorf("leaked %d groups, %d bytes", st.LiveGroups, mem.InUse())
	}
}
