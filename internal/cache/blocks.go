package cache

import (
	"fmt"
	"iter"
	"os"
	"slices"

	"deca/internal/decompose"
	"deca/internal/memory"
	"deca/internal/serial"
)

// ObjectBlock stores a partition as a plain Go slice of records — Spark's
// default MEMORY storage level. Pointer-rich record types keep the whole
// population visible to the garbage collector on every cycle, which is the
// paper's core problem statement. Swapping out serializes (Spark writes
// serialized bytes on eviction); swapping in re-materializes every object.
type ObjectBlock[T any] struct {
	values   []T
	memBytes int64
	ser      serial.Serializer[T]
	estimate func(T) int
	file     string
}

// NewObjectBlock wraps values. estimate gives per-record heap bytes (nil
// selects a flat 48-byte guess); ser enables swap (nil makes the block
// non-swappable, so eviction drops it for recompute).
func NewObjectBlock[T any](values []T, estimate func(T) int, ser serial.Serializer[T]) *ObjectBlock[T] {
	if estimate == nil {
		estimate = func(T) int { return 48 }
	}
	if values == nil {
		values = []T{} // nil means swapped out: an empty block is resident
	}
	var total int64
	for _, v := range values {
		total += int64(estimate(v))
	}
	return &ObjectBlock[T]{values: values, memBytes: total, ser: ser, estimate: estimate}
}

// Values returns the resident records; nil when swapped out.
func (b *ObjectBlock[T]) Values() []T { return b.values }

// MemBytes implements Block.
func (b *ObjectBlock[T]) MemBytes() int64 {
	if b.values == nil {
		return 0
	}
	return b.memBytes
}

// InMemory implements Block.
func (b *ObjectBlock[T]) InMemory() bool { return b.values != nil }

// Swappable implements Block.
func (b *ObjectBlock[T]) Swappable() bool { return b.ser != nil }

// SwapOut implements Block: serialize all records to a temp file.
func (b *ObjectBlock[T]) SwapOut(dir string) error {
	if b.ser == nil {
		return fmt.Errorf("cache: object block has no serializer")
	}
	if b.values == nil {
		return nil
	}
	var buf []byte
	buf = serial.AppendUvarint(buf, uint64(len(b.values)))
	for _, v := range b.values {
		buf = b.ser.Marshal(buf, v)
	}
	f, err := os.CreateTemp(dir, "deca-swap-obj-*.bin")
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return err
	}
	b.file = f.Name()
	b.values = nil
	return nil
}

// SwapIn implements Block: deserialize records back into fresh objects.
func (b *ObjectBlock[T]) SwapIn() error {
	if b.values != nil {
		return nil
	}
	if b.file == "" {
		return fmt.Errorf("cache: object block has no swap file")
	}
	data, err := os.ReadFile(b.file)
	if err != nil {
		return err
	}
	n, k := serial.Uvarint(data)
	values := make([]T, 0, n)
	off := k
	for i := uint64(0); i < n; i++ {
		v, m := b.ser.Unmarshal(data[off:])
		values = append(values, v)
		off += m
	}
	os.Remove(b.file)
	b.file = ""
	b.values = values
	return nil
}

// Drop implements Block.
func (b *ObjectBlock[T]) Drop() {
	b.values = nil
	if b.file != "" {
		os.Remove(b.file)
		b.file = ""
	}
}

// SerializedBlock stores a partition as one serialized byte buffer — the
// SparkSer (Kryo, MEMORY_SER) level. Reading costs a full deserialization
// that allocates fresh objects every time; that cost is what Table 5
// isolates. Swap is a raw byte copy.
type SerializedBlock[T any] struct {
	data  []byte
	count int
	ser   serial.Serializer[T]
	file  string
}

// BuildSerializedBlock marshals each record as records yields it, so a
// partition is serialized while it computes, with no staging slice.
func BuildSerializedBlock[T any](records iter.Seq[T], ser serial.Serializer[T]) *SerializedBlock[T] {
	buf := []byte{} // nil means swapped out: an empty block is resident
	n := 0
	for v := range records {
		buf = ser.Marshal(buf, v)
		n++
	}
	return &SerializedBlock[T]{data: buf, count: n, ser: ser}
}

// Decode materializes all records — the per-access deserialization cost.
func (b *SerializedBlock[T]) Decode() []T {
	values := make([]T, 0, b.count)
	off := 0
	for i := 0; i < b.count; i++ {
		v, n := b.ser.Unmarshal(b.data[off:])
		values = append(values, v)
		off += n
	}
	return values
}

// Each decodes records one at a time without building a slice.
func (b *SerializedBlock[T]) Each(yield func(T) bool) {
	off := 0
	for i := 0; i < b.count; i++ {
		v, n := b.ser.Unmarshal(b.data[off:])
		if !yield(v) {
			return
		}
		off += n
	}
}

// Count returns the number of records.
func (b *SerializedBlock[T]) Count() int { return b.count }

// MemBytes implements Block.
func (b *SerializedBlock[T]) MemBytes() int64 { return int64(len(b.data)) }

// InMemory implements Block.
func (b *SerializedBlock[T]) InMemory() bool { return b.data != nil }

// Swappable implements Block.
func (b *SerializedBlock[T]) Swappable() bool { return true }

// SwapOut implements Block: the bytes go to disk as-is.
func (b *SerializedBlock[T]) SwapOut(dir string) error {
	if b.data == nil {
		return nil
	}
	f, err := os.CreateTemp(dir, "deca-swap-ser-*.bin")
	if err != nil {
		return err
	}
	if _, err := f.Write(b.data); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return err
	}
	b.file = f.Name()
	b.data = nil
	return nil
}

// SwapIn implements Block.
func (b *SerializedBlock[T]) SwapIn() error {
	if b.data != nil {
		return nil
	}
	if b.file == "" {
		return fmt.Errorf("cache: serialized block has no swap file")
	}
	data, err := os.ReadFile(b.file)
	if err != nil {
		return err
	}
	os.Remove(b.file)
	b.file = ""
	b.data = data
	return nil
}

// Drop implements Block.
func (b *SerializedBlock[T]) Drop() {
	b.data = nil
	if b.file != "" {
		os.Remove(b.file)
		b.file = ""
	}
}

// DecaBlock stores a partition as a decomposed page group (§4.3.2,
// Figure 6(a)). Records are accessed in place through the codec or raw
// page bytes — no deserialization, no per-record objects, and the GC sees
// only the pages. Swap writes the raw pages (Appendix C); pointers stay
// valid across a swap round-trip.
type DecaBlock[T any] struct {
	mem   *memory.Manager
	group *memory.Group
	codec decompose.Codec[T]
	count int
	file  string
}

// NewDecaBlock decomposes values into a fresh page group.
func NewDecaBlock[T any](mem *memory.Manager, codec decompose.Codec[T], values []T) *DecaBlock[T] {
	return BuildDecaBlock(mem, codec, slices.Values(values))
}

// BuildDecaBlock decomposes each record into a fresh page group as
// records yields it: a partition goes from its compute loop straight
// into pages, with no staging slice, so the block's only heap objects
// are its pages. If records panics (the engine's lazy iterators carry
// task errors that way), the group is released before the panic
// continues.
func BuildDecaBlock[T any](mem *memory.Manager, codec decompose.Codec[T], records iter.Seq[T]) *DecaBlock[T] {
	g := mem.NewGroup()
	built := false
	defer func() {
		if !built {
			g.Release()
		}
	}()
	n := 0
	for v := range records {
		decompose.Write(g, codec, v)
		n++
	}
	built = true
	return NewDecaBlockFromGroup(mem, codec, g, n)
}

// NewDecaBlockFromGroup adopts an already-filled page group (used when a
// shuffle buffer's output is decomposed straight into the cache,
// Figure 7(b)).
func NewDecaBlockFromGroup[T any](mem *memory.Manager, codec decompose.Codec[T], g *memory.Group, count int) *DecaBlock[T] {
	return &DecaBlock[T]{mem: mem, group: g, codec: codec, count: count}
}

// Each scans records in place.
func (b *DecaBlock[T]) Each(yield func(T) bool) {
	decompose.Scan(b.group, b.codec, yield)
}

// Group exposes the page group for transformed code that reads raw bytes
// (the Figure 12 access path).
func (b *DecaBlock[T]) Group() *memory.Group { return b.group }

// Codec returns the block's codec.
func (b *DecaBlock[T]) Codec() decompose.Codec[T] { return b.codec }

// Count returns the number of records.
func (b *DecaBlock[T]) Count() int { return b.count }

// MemBytes implements Block.
func (b *DecaBlock[T]) MemBytes() int64 {
	if b.group == nil {
		return 0
	}
	return b.group.Footprint()
}

// InMemory implements Block.
func (b *DecaBlock[T]) InMemory() bool { return b.group != nil }

// Swappable implements Block.
func (b *DecaBlock[T]) Swappable() bool { return true }

// SwapOut implements Block: raw page bytes, no serialization.
func (b *DecaBlock[T]) SwapOut(dir string) error {
	if b.group == nil {
		return nil
	}
	f, err := os.CreateTemp(dir, "deca-swap-page-*.bin")
	if err != nil {
		return err
	}
	if _, err := b.group.WriteTo(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return err
	}
	b.file = f.Name()
	b.group.Release()
	b.group = nil
	return nil
}

// SwapIn implements Block.
func (b *DecaBlock[T]) SwapIn() error {
	if b.group != nil {
		return nil
	}
	if b.file == "" {
		return fmt.Errorf("cache: deca block has no swap file")
	}
	f, err := os.Open(b.file)
	if err != nil {
		return err
	}
	g, err := memory.ReadGroupFrom(b.mem, f)
	f.Close()
	if err != nil {
		return err
	}
	os.Remove(b.file)
	b.file = ""
	b.group = g
	return nil
}

// Drop implements Block: the whole page group releases at once.
func (b *DecaBlock[T]) Drop() {
	if b.group != nil {
		b.group.Release()
		b.group = nil
	}
	if b.file != "" {
		os.Remove(b.file)
		b.file = ""
	}
}
