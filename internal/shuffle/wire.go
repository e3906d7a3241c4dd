package shuffle

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"deca/internal/decompose"
	"deca/internal/memory"
)

// Wire codecs: every shuffle buffer has a self-describing byte frame so a
// network transport can move map output between executors. The asymmetry
// the paper measures in §6.5 is built in:
//
//   - Deca containers encode as header + key/pointer table + a page
//     snapshot (memory.Group.SnapshotSegments): the record bytes are
//     already in wire format, so encoding is a handful of bulk copies and
//     decoding restores pages into the destination executor's manager
//     with the pointers valid as-is (page boundaries survive the frame,
//     so the rebase is the identity). Their frames are laid out in one
//     place, EncodeSegments (segments.go); EncodeWire writes those
//     segments out.
//   - Object containers round-trip through internal/serial, record by
//     record: decode materializes fresh objects, re-creating the
//     allocation and GC cost Kryo/SparkSer pays on every remote fetch.
//   - Spill runs cross the wire as raw file bytes on both paths and land
//     in the destination's spill directory.
//
// Each frame opens with a kind byte; decoders verify it, so a frame
// handed to the wrong decoder fails loudly instead of misparsing.

// WireReader is the stream a container frame decodes from: byte-level
// reads for headers plus bulk reads for pages and spill runs.
// *bytes.Reader and *bufio.Reader both satisfy it.
type WireReader interface {
	io.Reader
	io.ByteReader
}

// Frame kind bytes.
const (
	wireDecaAgg byte = iota + 1
	wireObjectAgg
	wireDecaGroup
	wireObjectGroup
	wireDecaSort
	wireObjectSort
)

// maxWireCount bounds table counts and record lengths read off the wire,
// rejecting corrupt headers before they turn into huge allocations.
const maxWireCount = 1 << 31

// maxWireHint caps every allocation a decoder sizes from a count it has
// read but not yet backed with bytes (map presizing, pointer slabs and
// arrays, key buffers): a corrupt count up to maxWireCount then fails on
// the short read that follows instead of allocating gigabytes first.
// Storage beyond the hint grows with the bytes actually decoded.
const maxWireHint = 1 << 16

//
// Encode/decode plumbing.
//

// wireEncoder wraps a writer with varint and length-prefix helpers plus a
// reusable staging buffer for key/record bytes. All output is buffered
// (small table entries coalesce into few large writes; page-sized bulk
// writes pass through) — the caller must flush.
type wireEncoder struct {
	w       *bufio.Writer
	scratch []byte
	hdr     [binary.MaxVarintLen64]byte
}

func newWireEncoder(w io.Writer) *wireEncoder {
	return &wireEncoder{w: bufio.NewWriter(w)}
}

func (e *wireEncoder) flush() error { return e.w.Flush() }

func (e *wireEncoder) raw(b []byte) error {
	_, err := e.w.Write(b)
	return err
}

func (e *wireEncoder) byte(b byte) error {
	e.hdr[0] = b
	return e.raw(e.hdr[:1])
}

func (e *wireEncoder) uvarint(v uint64) error {
	return e.raw(e.hdr[:binary.PutUvarint(e.hdr[:], v)])
}

// stage returns the encoder's scratch resized to n bytes.
func (e *wireEncoder) stage(n int) []byte {
	e.scratch = slices.Grow(e.scratch[:0], n)[:n]
	return e.scratch
}

// lenBytes writes b with a uvarint length prefix.
func (e *wireEncoder) lenBytes(b []byte) error {
	if err := e.uvarint(uint64(len(b))); err != nil {
		return err
	}
	return e.raw(b)
}

// ptrChunk is how many pointers stagePtrs/appendPtrs stage per bulk
// write/read.
const ptrChunk = 1024

func readKind(r WireReader, want byte, name string) error {
	got, err := r.ReadByte()
	if err != nil {
		return fmt.Errorf("shuffle: %s frame kind: %w", name, err)
	}
	if got != want {
		return fmt.Errorf("shuffle: %s frame has kind %d, want %d", name, got, want)
	}
	return nil
}

func readCount(r WireReader, name string) (int, error) {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("shuffle: %s count: %w", name, err)
	}
	if v > maxWireCount {
		return 0, fmt.Errorf("shuffle: %s count %d implausible", name, v)
	}
	return int(v), nil
}

// readLenBytes reads a uvarint length prefix and that many bytes into buf
// (grown as needed, reused across calls). Past maxWireHint the buffer
// grows with the bytes read, at most doubling per read, so a corrupt
// length fails on the short read rather than after a length-sized
// allocation.
func readLenBytes(r WireReader, buf []byte, name string) ([]byte, error) {
	n, err := readCount(r, name)
	if err != nil {
		return buf, err
	}
	buf = buf[:0]
	for len(buf) < n {
		k := min(n-len(buf), max(len(buf), maxWireHint))
		buf = slices.Grow(buf, k)
		if _, err := io.ReadFull(r, buf[len(buf):len(buf)+k]); err != nil {
			return buf, fmt.Errorf("shuffle: %s bytes: %w", name, err)
		}
		buf = buf[:len(buf)+k]
	}
	return buf, nil
}

// checkKeyLen rejects a length-prefixed key whose byte count contradicts
// a fixed-size key codec — a corrupt table must not reach codec.Decode,
// which assumes well-formed input. For variable-size keys only the wire
// length prefix is checked (readLenBytes); the bytes inside it are the
// codec's input contract, as frames originate from this process's own
// encoder.
func checkKeyLen[K any](codec decompose.Codec[K], buf []byte, name string) error {
	if fs := codec.FixedSize(); fs >= 0 && len(buf) != fs {
		return fmt.Errorf("shuffle: %s key is %d bytes, codec wants %d", name, len(buf), fs)
	}
	return nil
}

// checkPtrs validates that every decoded pointer lands inside the
// restored group's used bytes. This is structural bounds validation —
// out-of-range pages and offsets error here instead of becoming page
// faults on first access. It deliberately stops short of decoding each
// record to verify its full extent (that would re-introduce exactly the
// per-record pass the Deca frame avoids); truncation *inside* a record
// of a frame whose tables and lengths all validate is trusted, since
// frames come from this process's own encoder.
func checkPtrs(g *memory.Group, ptrs []memory.Ptr, name string) error {
	for _, ptr := range ptrs {
		if _, err := g.CheckedBytes(ptr, 1); err != nil {
			return fmt.Errorf("shuffle: %s: %w", name, err)
		}
	}
	return nil
}

// appendPtrs bulk-reads m pointers in chunks and appends them to dst.
// The chunks stage through scratch, the frame's one decode buffer (grown
// to at most one chunk, returned for reuse like readLenBytes' buf).
// Within dst's capacity nothing is allocated; past it dst grows chunk by
// chunk as the bytes arrive, so a corrupt count fails on the short read
// rather than after a count-sized allocation.
func appendPtrs(r WireReader, dst []memory.Ptr, m int, scratch []byte) ([]memory.Ptr, []byte, error) {
	for m > 0 {
		n := min(m, ptrChunk)
		scratch = slices.Grow(scratch[:0], 8*n)[:8*n]
		if _, err := io.ReadFull(r, scratch); err != nil {
			return dst, scratch, fmt.Errorf("shuffle: ptr array: %w", err)
		}
		dst = slices.Grow(dst, n)
		for i := 0; i < n; i++ {
			dst = append(dst, memory.Ptr{
				Page: int32(binary.LittleEndian.Uint32(scratch[8*i:])),
				Off:  int32(binary.LittleEndian.Uint32(scratch[8*i+4:])),
			})
		}
		m -= n
	}
	return dst, scratch, nil
}

// carvePtrs returns an empty pointer array with capacity m carved from
// the front of slab, and the slab's uncarved rest; when slab is too short
// a fresh one of max(m, want) pointers (want capped at maxWireHint)
// replaces it. Carving lets one decoded frame's per-key arrays share a
// few slab allocations instead of taking one each. Every carved array is
// capped at its length (a full slice expression): a later Put or
// MergeFrom append on one key reallocates and copies out instead of
// overwriting the next key's pointers.
func carvePtrs(slab []memory.Ptr, m, want int) (ptrs, rest []memory.Ptr) {
	if m > len(slab) {
		slab = make([]memory.Ptr, max(m, min(want, maxWireHint)))
	}
	return slab[:0:m], slab[m:]
}

// encodeSpills streams every spill run: uvarint run count, then per run a
// uvarint size and the raw file bytes.
func encodeSpills(e *wireEncoder, spills []spillFile) error {
	if err := e.uvarint(uint64(len(spills))); err != nil {
		return err
	}
	for _, run := range spills {
		if err := e.uvarint(uint64(run.size)); err != nil {
			return err
		}
		if err := run.writeTo(e.w); err != nil {
			return err
		}
	}
	return nil
}

// decodeSpills restores streamed runs into fresh files under dir and
// returns them with their total size. On error, already-restored files
// are deleted.
func decodeSpills(r WireReader, dir string) ([]spillFile, int64, error) {
	n, err := readCount(r, "spill run")
	if err != nil {
		return nil, 0, err
	}
	var runs []spillFile
	var total int64
	fail := func(err error) ([]spillFile, int64, error) {
		for _, run := range runs {
			run.remove()
		}
		return nil, 0, err
	}
	for i := 0; i < n; i++ {
		size, err := binary.ReadUvarint(r)
		if err != nil {
			return fail(fmt.Errorf("shuffle: spill run %d size: %w", i, err))
		}
		if size > maxWireCount {
			return fail(fmt.Errorf("shuffle: spill run %d size %d implausible", i, size))
		}
		run, err := restoreSpill(dir, r, int64(size))
		if err != nil {
			return fail(err)
		}
		runs = append(runs, run)
		total += int64(size)
	}
	return runs, total, nil
}

//
// DecaAgg.
//

// DecodeDecaAgg rebuilds an aggregation buffer from its wire frame inside
// the destination executor: pages restore into mem, spill runs land in
// spillDir, and the rebuilt slots point at the restored pages directly.
// The construction parameters must match the encoding side's (the engine
// derives both from one PairOps).
func DecodeDecaAgg[K comparable, V any](
	r WireReader,
	mem *memory.Manager,
	combine func(V, V) V,
	keyCodec decompose.Codec[K],
	valCodec decompose.Codec[V],
	spillDir string,
) (*DecaAgg[K, V], error) {
	if err := readKind(r, wireDecaAgg, "DecaAgg"); err != nil {
		return nil, err
	}
	b, err := NewDecaAgg[K, V](mem, combine, keyCodec, valCodec, spillDir)
	if err != nil {
		return nil, err
	}
	n, err := readCount(r, "DecaAgg key")
	if err != nil {
		b.Release()
		return nil, err
	}
	// One buffer stages every key and pointer of the frame; the presized
	// table never rehashes while the key section streams in.
	b.slots = make(map[K]memory.Ptr, min(n, maxWireHint))
	var buf []byte
	var ptr [1]memory.Ptr
	for i := 0; i < n; i++ {
		if buf, err = readLenBytes(r, buf, "DecaAgg key"); err != nil {
			b.Release()
			return nil, err
		}
		if err := checkKeyLen(keyCodec, buf, "DecaAgg"); err != nil {
			b.Release()
			return nil, err
		}
		k, _ := keyCodec.Decode(buf)
		if _, buf, err = appendPtrs(r, ptr[:0], 1, buf); err != nil {
			b.Release()
			return nil, err
		}
		b.slots[k] = ptr[0]
	}
	g, err := mem.RestoreGroup(r)
	if err != nil {
		b.Release()
		return nil, err
	}
	b.group.Release()
	b.group = g
	// The fixed value size makes pointer validation cheap; a corrupt table
	// must not become an out-of-bounds page access later.
	for k, ptr := range b.slots {
		if _, err := g.CheckedBytes(ptr, b.valSize); err != nil {
			b.Release()
			return nil, fmt.Errorf("shuffle: DecaAgg key %v: %w", k, err)
		}
	}
	spills, total, err := decodeSpills(r, spillDir)
	if err != nil {
		b.Release()
		return nil, err
	}
	b.spills = spills
	b.spilled = total
	return b, nil
}

//
// ObjectAgg.
//

// EncodeWire serializes the table record by record through the Kryo-style
// serializers — the per-record encode cost Deca's page snapshot avoids.
func (b *ObjectAgg[K, V]) EncodeWire(w io.Writer) error {
	if b.keySer == nil || b.valSer == nil {
		return fmt.Errorf("shuffle: ObjectAgg has no serializers; cannot encode")
	}
	e := newWireEncoder(w)
	if err := e.byte(wireObjectAgg); err != nil {
		return err
	}
	if err := e.uvarint(uint64(len(b.table))); err != nil {
		return err
	}
	for k, v := range b.table {
		rec := b.keySer.Marshal(e.stage(0), k)
		rec = b.valSer.Marshal(rec, *v)
		e.scratch = rec[:0]
		if err := e.lenBytes(rec); err != nil {
			return err
		}
	}
	if err := encodeSpills(e, b.spills); err != nil {
		return err
	}
	return e.flush()
}

// DecodeObjectAgg rebuilds an object aggregation buffer by deserializing
// every record into fresh objects (the §6.5 deserialization cost).
func DecodeObjectAgg[K comparable, V any](
	r WireReader,
	combine func(V, V) V,
	cfg ObjectAggConfig[K, V],
) (*ObjectAgg[K, V], error) {
	if err := readKind(r, wireObjectAgg, "ObjectAgg"); err != nil {
		return nil, err
	}
	if cfg.KeySer == nil || cfg.ValSer == nil {
		return nil, fmt.Errorf("shuffle: ObjectAgg decode needs serializers")
	}
	b := NewObjectAgg(combine, cfg)
	n, err := readCount(r, "ObjectAgg record")
	if err != nil {
		b.Release()
		return nil, err
	}
	var buf []byte
	for i := 0; i < n; i++ {
		if buf, err = readLenBytes(r, buf, "ObjectAgg record"); err != nil {
			b.Release()
			return nil, err
		}
		k, kn := cfg.KeySer.Unmarshal(buf)
		if kn <= 0 {
			b.Release()
			return nil, fmt.Errorf("shuffle: ObjectAgg record %d: corrupt key", i)
		}
		v, vn := cfg.ValSer.Unmarshal(buf[kn:])
		if vn <= 0 {
			b.Release()
			return nil, fmt.Errorf("shuffle: ObjectAgg record %d: corrupt value", i)
		}
		b.Put(k, v)
	}
	spills, total, err := decodeSpills(r, cfg.SpillDir)
	if err != nil {
		b.Release()
		return nil, err
	}
	b.spills = spills
	b.spilled = total
	return b, nil
}

//
// DecaGroup.
//

// DecodeDecaGroup rebuilds a grouping buffer from its wire frame inside
// the destination executor.
func DecodeDecaGroup[K comparable, V any](
	r WireReader,
	mem *memory.Manager,
	keyCodec decompose.Codec[K],
	valCodec decompose.Codec[V],
	spillDir string,
) (*DecaGroup[K, V], error) {
	if err := readKind(r, wireDecaGroup, "DecaGroup"); err != nil {
		return nil, err
	}
	b := NewDecaGroup[K, V](mem, keyCodec, valCodec, spillDir)
	n, err := readCount(r, "DecaGroup key")
	if err != nil {
		b.Release()
		return nil, err
	}
	// Per-frame decode state: one staging buffer for keys and pointer
	// chunks, a presized table, and slabs the pointer arrays are carved
	// from, each sized for the keys left at the frame's pointers-per-key
	// so far. An array past maxWireHint (a huge key, or a corrupt count)
	// gets its own storage, grown as its bytes arrive.
	b.slots = make(map[K][]memory.Ptr, min(n, maxWireHint))
	var buf []byte
	var slab []memory.Ptr
	for i := 0; i < n; i++ {
		if buf, err = readLenBytes(r, buf, "DecaGroup key"); err != nil {
			b.Release()
			return nil, err
		}
		if err := checkKeyLen(keyCodec, buf, "DecaGroup"); err != nil {
			b.Release()
			return nil, err
		}
		k, _ := keyCodec.Decode(buf)
		m, err := readCount(r, "DecaGroup ptr")
		if err != nil {
			b.Release()
			return nil, err
		}
		var ptrs []memory.Ptr
		if m <= maxWireHint {
			perKey := (b.count + m + i) / (i + 1) // rounded up
			ptrs, slab = carvePtrs(slab, m, perKey*(n-i))
		}
		if ptrs, buf, err = appendPtrs(r, ptrs, m, buf); err != nil {
			b.Release()
			return nil, err
		}
		b.slots[k] = ptrs
		b.count += m
	}
	g, err := mem.RestoreGroup(r)
	if err != nil {
		b.Release()
		return nil, err
	}
	b.group.Release()
	b.group = g
	for k, ptrs := range b.slots {
		if err := checkPtrs(g, ptrs, "DecaGroup"); err != nil {
			b.Release()
			return nil, fmt.Errorf("key %v: %w", k, err)
		}
	}
	spills, total, err := decodeSpills(r, spillDir)
	if err != nil {
		b.Release()
		return nil, err
	}
	b.spills = spills
	b.spilled = total
	return b, nil
}

//
// ObjectGroup.
//

// EncodeWire serializes every (key, value) pair flat, in list order per
// key; decode regroups them with within-key order preserved.
func (b *ObjectGroup[K, V]) EncodeWire(w io.Writer) error {
	if b.keySer == nil || b.valSer == nil {
		return fmt.Errorf("shuffle: ObjectGroup has no serializers; cannot encode")
	}
	e := newWireEncoder(w)
	if err := e.byte(wireObjectGroup); err != nil {
		return err
	}
	if err := e.uvarint(uint64(b.count)); err != nil {
		return err
	}
	for k, vs := range b.table {
		for _, v := range vs {
			rec := b.keySer.Marshal(e.stage(0), k)
			rec = b.valSer.Marshal(rec, *v)
			e.scratch = rec[:0]
			if err := e.lenBytes(rec); err != nil {
				return err
			}
		}
	}
	if err := encodeSpills(e, b.spills); err != nil {
		return err
	}
	return e.flush()
}

// DecodeObjectGroup rebuilds a grouping buffer, deserializing and boxing
// every value afresh.
func DecodeObjectGroup[K comparable, V any](
	r WireReader,
	cfg ObjectGroupConfig[K, V],
) (*ObjectGroup[K, V], error) {
	if err := readKind(r, wireObjectGroup, "ObjectGroup"); err != nil {
		return nil, err
	}
	if cfg.KeySer == nil || cfg.ValSer == nil {
		return nil, fmt.Errorf("shuffle: ObjectGroup decode needs serializers")
	}
	b := NewObjectGroup(cfg)
	n, err := readCount(r, "ObjectGroup record")
	if err != nil {
		b.Release()
		return nil, err
	}
	var buf []byte
	for i := 0; i < n; i++ {
		if buf, err = readLenBytes(r, buf, "ObjectGroup record"); err != nil {
			b.Release()
			return nil, err
		}
		k, kn := cfg.KeySer.Unmarshal(buf)
		if kn <= 0 {
			b.Release()
			return nil, fmt.Errorf("shuffle: ObjectGroup record %d: corrupt key", i)
		}
		v, vn := cfg.ValSer.Unmarshal(buf[kn:])
		if vn <= 0 {
			b.Release()
			return nil, fmt.Errorf("shuffle: ObjectGroup record %d: corrupt value", i)
		}
		b.Put(k, v)
	}
	spills, total, err := decodeSpills(r, cfg.SpillDir)
	if err != nil {
		b.Release()
		return nil, err
	}
	b.spills = spills
	b.spilled = total
	return b, nil
}

//
// DecaSort.
//

// DecodeDecaSort rebuilds a sort buffer from its wire frame inside the
// destination executor. Spill runs arrive already sorted and join the
// k-way merge untouched.
func DecodeDecaSort[K comparable, V any](
	r WireReader,
	mem *memory.Manager,
	less func(a, b K) bool,
	keyCodec decompose.Codec[K],
	valCodec decompose.Codec[V],
	spillDir string,
) (*DecaSort[K, V], error) {
	if err := readKind(r, wireDecaSort, "DecaSort"); err != nil {
		return nil, err
	}
	b := NewDecaSort[K, V](mem, less, keyCodec, valCodec, spillDir)
	n, err := readCount(r, "DecaSort ptr")
	if err != nil {
		b.Release()
		return nil, err
	}
	b.ptrs, _, err = appendPtrs(r, make([]memory.Ptr, 0, min(n, maxWireHint)), n, nil)
	if err != nil {
		b.Release()
		return nil, err
	}
	g, err := mem.RestoreGroup(r)
	if err != nil {
		b.Release()
		return nil, err
	}
	b.group.Release()
	b.group = g
	if err := checkPtrs(g, b.ptrs, "DecaSort"); err != nil {
		b.Release()
		return nil, err
	}
	spills, total, err := decodeSpills(r, spillDir)
	if err != nil {
		b.Release()
		return nil, err
	}
	b.spills = spills
	b.spilled = total
	return b, nil
}

//
// ObjectSort.
//

// EncodeWire serializes the in-memory records in insertion order, then
// streams the sorted spill runs.
func (b *ObjectSort[K, V]) EncodeWire(w io.Writer) error {
	if b.keySer == nil || b.valSer == nil {
		return fmt.Errorf("shuffle: ObjectSort has no serializers; cannot encode")
	}
	e := newWireEncoder(w)
	if err := e.byte(wireObjectSort); err != nil {
		return err
	}
	if err := e.uvarint(uint64(len(b.records))); err != nil {
		return err
	}
	for _, rec := range b.records {
		buf := b.keySer.Marshal(e.stage(0), rec.Key)
		buf = b.valSer.Marshal(buf, rec.Value)
		e.scratch = buf[:0]
		if err := e.lenBytes(buf); err != nil {
			return err
		}
	}
	if err := encodeSpills(e, b.spills); err != nil {
		return err
	}
	return e.flush()
}

// DecodeObjectSort rebuilds an object sort buffer, materializing every
// record object afresh.
func DecodeObjectSort[K comparable, V any](
	r WireReader,
	less func(a, b K) bool,
	cfg ObjectSortConfig[K, V],
) (*ObjectSort[K, V], error) {
	if err := readKind(r, wireObjectSort, "ObjectSort"); err != nil {
		return nil, err
	}
	if cfg.KeySer == nil || cfg.ValSer == nil {
		return nil, fmt.Errorf("shuffle: ObjectSort decode needs serializers")
	}
	b := NewObjectSort(less, cfg)
	n, err := readCount(r, "ObjectSort record")
	if err != nil {
		b.Release()
		return nil, err
	}
	var buf []byte
	for i := 0; i < n; i++ {
		if buf, err = readLenBytes(r, buf, "ObjectSort record"); err != nil {
			b.Release()
			return nil, err
		}
		k, kn := cfg.KeySer.Unmarshal(buf)
		if kn <= 0 {
			b.Release()
			return nil, fmt.Errorf("shuffle: ObjectSort record %d: corrupt key", i)
		}
		v, vn := cfg.ValSer.Unmarshal(buf[kn:])
		if vn <= 0 {
			b.Release()
			return nil, fmt.Errorf("shuffle: ObjectSort record %d: corrupt value", i)
		}
		b.Put(k, v)
	}
	spills, total, err := decodeSpills(r, cfg.SpillDir)
	if err != nil {
		b.Release()
		return nil, err
	}
	b.spills = spills
	b.spilled = total
	return b, nil
}
