package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"deca/internal/cache"
	"deca/internal/datagen"
	"deca/internal/decompose"
	"deca/internal/memory"
	"deca/internal/obs"
	"deca/internal/sched"
	"deca/internal/shuffle"
	"deca/internal/transport"
	"deca/internal/workloads"
)

// replayer drives one workload's inputs through each layer's public
// functions, one call boundary per span. Every replay checks its own
// output before a number is recorded; a failed check returns an error
// and the layer's numbers are not reported.
type replayer struct {
	*tracer
	rep  *report
	seed int64
	dir  string // spill directory of the replay
	// ref is the workload's reference answer (the Spark-mode checksum).
	ref float64
	// stages and tasks are the traced job's own counts, from its event
	// spine; the scheduler replay runs the same shape with empty bodies.
	stages, tasks int
}

// digest summarizes a container's contents independently of record
// order: a record count and a weighted sum of exact integers.
type digest struct {
	records int
	sum     float64
}

func (d *digest) add(o digest) { d.records += o.records; d.sum += o.sum }

// container is what the exchange replay needs from a Deca shuffle
// buffer; DecaAgg and DecaGroup both provide it.
type container[K comparable, V any] interface {
	Put(K, V)
	EncodeWire(io.Writer) error
	EncodeSegments() (*transport.FrameSegments, error)
	PageOccupancy() (used, footprint int64)
	Spill() error
	SpilledBytes() int64
	Release()
}

// exchangeOps binds one container shape to the exchange replay.
type exchangeOps[K comparable, V any, B container[K, V]] struct {
	hash   func(K) uint32
	create func(mem *memory.Manager, dir string) (B, error)
	decode func(r shuffle.WireReader, mem *memory.Manager, dir string) (B, error)
	merge  func(dst, src B) error
	digest func(B) (digest, error)
}

func aggOps[K comparable, V any](hash func(K) uint32, kc decompose.Codec[K], vc decompose.Codec[V],
	combine func(V, V) V, weigh func(K, V) float64) exchangeOps[K, V, *shuffle.DecaAgg[K, V]] {
	return exchangeOps[K, V, *shuffle.DecaAgg[K, V]]{
		hash: hash,
		create: func(mem *memory.Manager, dir string) (*shuffle.DecaAgg[K, V], error) {
			return shuffle.NewDecaAgg(mem, combine, kc, vc, dir)
		},
		decode: func(r shuffle.WireReader, mem *memory.Manager, dir string) (*shuffle.DecaAgg[K, V], error) {
			return shuffle.DecodeDecaAgg(r, mem, combine, kc, vc, dir)
		},
		merge: func(dst, src *shuffle.DecaAgg[K, V]) error { return dst.MergeFrom(src) },
		digest: func(b *shuffle.DecaAgg[K, V]) (digest, error) {
			var d digest
			err := b.Drain(func(k K, v V) bool {
				d.records++
				d.sum += weigh(k, v)
				return true
			})
			return d, err
		},
	}
}

func groupOps[K comparable, V any](hash func(K) uint32, kc decompose.Codec[K], vc decompose.Codec[V],
	weigh func(K, V) float64) exchangeOps[K, V, *shuffle.DecaGroup[K, V]] {
	return exchangeOps[K, V, *shuffle.DecaGroup[K, V]]{
		hash: hash,
		create: func(mem *memory.Manager, dir string) (*shuffle.DecaGroup[K, V], error) {
			return shuffle.NewDecaGroup(mem, kc, vc, dir), nil
		},
		decode: func(r shuffle.WireReader, mem *memory.Manager, dir string) (*shuffle.DecaGroup[K, V], error) {
			return shuffle.DecodeDecaGroup(r, mem, kc, vc, dir)
		},
		merge: func(dst, src *shuffle.DecaGroup[K, V]) error { return dst.MergeFrom(src) },
		digest: func(b *shuffle.DecaGroup[K, V]) (digest, error) {
			var d digest
			err := b.Drain(func(k K, vs []V) bool {
				for _, v := range vs {
					d.records++
					d.sum += weigh(k, v)
				}
				return true
			})
			return d, err
		},
	}
}

// heapAlloc is the process's cumulative allocated bytes.
func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// replayExchange replays one shuffle the way the engine runs it:
// partitions map tasks fill one buffer per reduce partition, every
// buffer is encoded, decoded into reduce-side memory and merged per
// reduce partition, and every buffer is fetched once more through a
// loopback DataServer/DataClient pair. Map task 0's buffers are then
// spilled. It returns the merged output's digest.
func replayExchange[K comparable, V any, B container[K, V]](rp *replayer, ops exchangeOps[K, V, B],
	input func(p int, emit func(K, V))) (digest, error) {
	mapMem := memory.NewManager(0, 0)
	redMem := memory.NewManager(0, 0)
	var live []B // every buffer not yet released, for the error paths
	release := func() {
		for _, b := range live {
			b.Release()
		}
		live = nil
	}
	defer release()
	create := func(mem *memory.Manager) (B, error) {
		b, err := ops.create(mem, rp.dir)
		if err == nil {
			live = append(live, b)
		}
		return b, err
	}

	bufs := make([][]B, partitions) // [map task][reduce partition]
	records := 0
	for m := range bufs {
		bufs[m] = make([]B, partitions)
		for r := range bufs[m] {
			b, err := create(mapMem)
			if err != nil {
				return digest{}, err
			}
			bufs[m][r] = b
		}
		row := bufs[m]
		_ = rp.span("shuffle.put", func() error {
			input(m, func(k K, v V) {
				row[shuffle.Partition(ops.hash(k), partitions)].Put(k, v)
				records++
			})
			return nil
		})
	}

	// Source-side answers and wire frames, outside every layer span.
	want := make([][]digest, partitions)
	frames := make([][][]byte, partitions)
	var used, footprint int64
	var mapTotal digest
	err := rp.span("bench.check", func() error {
		for m := range bufs {
			want[m] = make([]digest, partitions)
			frames[m] = make([][]byte, partitions)
			for r, b := range bufs[m] {
				d, err := ops.digest(b)
				if err != nil {
					return err
				}
				want[m][r] = d
				mapTotal.add(d)
				var frame bytes.Buffer
				if err := b.EncodeWire(&frame); err != nil {
					return err
				}
				frames[m][r] = frame.Bytes()
				u, f := b.PageOccupancy()
				used, footprint = used+u, footprint+f
			}
		}
		return nil
	})
	if err != nil {
		return digest{}, fmt.Errorf("map-side digest: %w", err)
	}

	// Encode: the vectored frame the serve path ships.
	for m := range bufs {
		for r, b := range bufs[m] {
			var n int64
			err := rp.span("shuffle.encode", func() error {
				fs, err := b.EncodeSegments()
				if err != nil {
					return err
				}
				n = fs.Len()
				fs.Release()
				return nil
			})
			if err != nil {
				return digest{}, fmt.Errorf("encode map %d reduce %d: %w", m, r, err)
			}
			if n != int64(len(frames[m][r])) {
				return digest{}, fmt.Errorf("encode map %d reduce %d: vectored frame %d bytes, wire frame %d", m, r, n, len(frames[m][r]))
			}
		}
	}

	// Decode every frame into reduce-side memory, then merge per reduce
	// partition.
	decoded := make([][]B, partitions) // [reduce partition][map task]
	alloc0 := heapAlloc()
	for m := range frames {
		for r, frame := range frames[m] {
			var b B
			err := rp.span("shuffle.decode", func() error {
				var err error
				b, err = ops.decode(bytes.NewReader(frame), redMem, rp.dir)
				return err
			})
			if err != nil {
				return digest{}, fmt.Errorf("decode map %d reduce %d: %w", m, r, err)
			}
			live = append(live, b)
			decoded[r] = append(decoded[r], b)
		}
	}
	decodeAlloc := heapAlloc() - alloc0
	for r := range decoded {
		for m, b := range decoded[r] {
			var d digest
			err := rp.span("bench.check", func() error {
				var err error
				d, err = ops.digest(b)
				return err
			})
			if err != nil || d != want[m][r] {
				return digest{}, fmt.Errorf("decoded frame map %d reduce %d: digest %+v, want %+v (err %v)", m, r, d, want[m][r], err)
			}
		}
	}
	var merged digest
	for r := range decoded {
		dst, err := create(redMem)
		if err != nil {
			return digest{}, err
		}
		err = rp.span("shuffle.merge", func() error {
			for _, src := range decoded[r] {
				if err := ops.merge(dst, src); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return digest{}, fmt.Errorf("merge reduce %d: %w", r, err)
		}
		for _, src := range decoded[r] {
			src.Release()
		}
		d, err := ops.digest(dst)
		if err != nil {
			return digest{}, fmt.Errorf("merged reduce %d: %w", r, err)
		}
		merged.add(d)
		dst.Release()
	}
	if merged.sum != mapTotal.sum {
		return digest{}, fmt.Errorf("merged sum %v, map-side sum %v", merged.sum, mapTotal.sum)
	}

	fetched, fetchAlloc, err := replayFetch(rp, ops, bufs, want, frames, redMem)
	if err != nil {
		return digest{}, err
	}

	// Spill map task 0's buffers: the write-to-disk role of the memory
	// layer, checked by draining the spilled runs back.
	var spilled int64
	for r, b := range bufs[0] {
		if err := rp.span("memory.spill", b.Spill); err != nil {
			return digest{}, fmt.Errorf("spill reduce %d: %w", r, err)
		}
		spilled += b.SpilledBytes()
		if d, err := ops.digest(b); err != nil || d != want[0][r] {
			return digest{}, fmt.Errorf("spilled buffer reduce %d: digest %+v, want %+v (err %v)", r, d, want[0][r], err)
		}
	}
	release()
	ms, rs := mapMem.Stats(), redMem.Stats()
	if ms.LiveGroups != 0 || rs.LiveGroups != 0 {
		return digest{}, fmt.Errorf("page groups still live after release: map %d, reduce %d", ms.LiveGroups, rs.LiveGroups)
	}
	if n := countFiles(rp.dir); n != 0 {
		return digest{}, fmt.Errorf("%d spill files left after release", n)
	}

	rp.rep.set("shuffle.put_ns", "ns", ratio(float64(rp.total("shuffle.put").Nanoseconds()), float64(records)))
	rp.rep.set("shuffle.encode_s", "s", rp.total("shuffle.encode").Seconds())
	rp.rep.set("shuffle.decode_s", "s", rp.total("shuffle.decode").Seconds())
	rp.rep.set("shuffle.decode_alloc_bytes", "bytes", float64(decodeAlloc))
	rp.rep.set("shuffle.merge_s", "s", rp.total("shuffle.merge").Seconds()/float64(partitions))
	rp.rep.set("shuffle.occupancy", "ratio", ratio(float64(used), float64(footprint)))
	fresh, reused := float64(ms.PagesAllocated+rs.PagesAllocated), float64(ms.PagesReused+rs.PagesReused)
	rp.rep.set("memory.pages_fresh", "count", fresh)
	rp.rep.set("memory.pages_reused", "count", reused)
	rp.rep.set("memory.page_reuse_ratio", "ratio", ratio(reused, fresh+reused))
	spillS := rp.total("memory.spill").Seconds()
	rp.rep.set("memory.spill_s", "s", spillS)
	rp.rep.set("memory.spill_mb_s", "MB/s", ratio(float64(spilled)/(1<<20), spillS))
	fetchS := rp.total("transport.fetch").Seconds()
	rp.rep.set("transport.fetch_s", "s", fetchS)
	rp.rep.set("transport.fetch_mb_s", "MB/s", ratio(float64(fetched)/(1<<20), fetchS))
	rp.rep.set("transport.fetch_alloc_bytes", "bytes", float64(fetchAlloc))
	return merged, nil
}

// replayFetch serves every map buffer from a loopback DataServer and
// fetches it once through a DataClient, decoding the stream into the
// reduce-side manager as the engine's TCP transport does. It returns
// the frame bytes fetched and the bytes allocated while fetching.
func replayFetch[K comparable, V any, B container[K, V]](rp *replayer, ops exchangeOps[K, V, B],
	bufs [][]B, want [][]digest, frames [][][]byte, mem *memory.Manager) (int64, uint64, error) {
	srv, err := transport.NewDataServer("")
	if err != nil {
		return 0, 0, err
	}
	defer srv.Close()
	client := transport.NewDataClient(30 * time.Second)
	defer client.Close()

	ids := make([]transport.MapOutputID, 0, partitions*partitions)
	for m := range bufs {
		for r, b := range bufs[m] {
			id := transport.MapOutputID{Shuffle: 1, MapTask: m, Reduce: r}
			srv.Put(id, transport.Payload{
				Bytes:    int64(len(frames[m][r])),
				Encode:   b.EncodeWire,
				Segments: b.EncodeSegments,
			})
			ids = append(ids, id)
		}
	}
	defer func() {
		for _, id := range ids {
			srv.Take(id) // Data is nil: the buffers are released by the caller
		}
	}()

	var fetched int64
	var alloc uint64
	open := func(r transport.FrameReader, _ int64) (transport.Decoded, error) {
		var b B
		err := rp.span("shuffle.decode_stream", func() error {
			var err error
			b, err = ops.decode(r, mem, rp.dir)
			return err
		})
		return transport.Decoded{Data: b}, err
	}
	for _, id := range ids {
		var dec transport.Decoded
		var size int64
		var found bool
		a0 := heapAlloc()
		err := rp.span("transport.fetch", func() error {
			var err error
			dec, size, found, err = client.FetchInto(srv.Addr(), id, open)
			return err
		})
		alloc += heapAlloc() - a0
		if err != nil {
			return 0, 0, fmt.Errorf("fetch %v: %w", id, err)
		}
		if !found {
			return 0, 0, fmt.Errorf("fetch %v: not found", id)
		}
		b := dec.Data.(B)
		d, err := ops.digest(b)
		b.Release()
		if wantSize := int64(len(frames[id.MapTask][id.Reduce])); size != wantSize {
			return 0, 0, fmt.Errorf("fetch %v: %d bytes, want %d", id, size, wantSize)
		}
		if err != nil || d != want[id.MapTask][id.Reduce] {
			return 0, 0, fmt.Errorf("fetched frame %v: digest %+v, want %+v (err %v)", id, d, want[id.MapTask][id.Reduce], err)
		}
		fetched += size
	}
	return fetched, alloc, nil
}

// replayCache persists each partition's values as a DecaBlock in a
// cache manager, scans them back in place, and runs the same values
// through the codec alone (the decompose layer).
func replayCache[T any](rp *replayer, codec decompose.Codec[T], parts [][]T, weigh func(T) float64) error {
	mem := memory.NewManager(0, 0)
	cm := cache.NewManager(0, rp.dir)
	defer cm.Clear()

	var want digest
	for _, vs := range parts {
		for _, v := range vs {
			want.records++
			want.sum += weigh(v)
		}
	}
	blocks := make([]*cache.DecaBlock[T], len(parts))
	for p, vs := range parts {
		err := rp.span("cache.persist", func() error {
			blocks[p] = cache.NewDecaBlock(mem, codec, vs)
			return cm.Put(cache.BlockID{Dataset: 1, Partition: p}, blocks[p])
		})
		if err != nil {
			return fmt.Errorf("persist partition %d: %w", p, err)
		}
	}
	var got digest
	for _, blk := range blocks {
		_ = rp.span("cache.scan", func() error {
			blk.Each(func(v T) bool {
				got.records++
				got.sum += weigh(v)
				return true
			})
			return nil
		})
	}
	if got != want {
		return fmt.Errorf("cache scan digest %+v, want %+v", got, want)
	}

	// The codec alone: encode every value into one flat buffer and
	// decode it back.
	var flat []byte
	_ = rp.span("decompose.encode", func() error {
		n := 0
		for _, vs := range parts {
			for _, v := range vs {
				n += codec.Size(v)
			}
		}
		flat = make([]byte, n)
		off := 0
		for _, vs := range parts {
			for _, v := range vs {
				sz := codec.Size(v)
				codec.Encode(flat[off:off+sz], v)
				off += sz
			}
		}
		return nil
	})
	got = digest{}
	_ = rp.span("decompose.decode", func() error {
		for off := 0; off < len(flat); {
			v, n := codec.Decode(flat[off:])
			got.records++
			got.sum += weigh(v)
			off += n
		}
		return nil
	})
	if got != want {
		return fmt.Errorf("codec round trip digest %+v, want %+v", got, want)
	}
	cm.Clear()
	if st := mem.Stats(); st.LiveGroups != 0 {
		return fmt.Errorf("%d cache page groups live after clear", st.LiveGroups)
	}

	n := float64(want.records)
	rp.rep.set("cache.persist_s", "s", rp.total("cache.persist").Seconds())
	rp.rep.set("cache.scan_ns", "ns", ratio(float64(rp.total("cache.scan").Nanoseconds()), n))
	rp.rep.set("decompose.encode_ns", "ns", ratio(float64(rp.total("decompose.encode").Nanoseconds()), n))
	rp.rep.set("decompose.decode_ns", "ns", ratio(float64(rp.total("decompose.decode").Nanoseconds()), n))
	return nil
}

// replaySched runs the traced job's stage and task counts through a
// fresh scheduler cluster with empty task bodies: pure dispatch cost.
func replaySched(rp *replayer) error {
	cl := sched.NewCluster(sched.Config{NumExecutors: numExecutors, SlotsPerExecutor: parallelism})
	stages := max(rp.stages, 1)
	per := max(rp.tasks/stages, 1)
	var ran atomic.Int64 // bodies run concurrently, one per executor slot
	for s := 0; s < stages; s++ {
		err := rp.span("sched.run_stage", func() error {
			return cl.RunStage(per, sched.StageOptions{}, func(sched.Attempt) error {
				ran.Add(1)
				return nil
			})
		})
		if err != nil {
			return fmt.Errorf("stage %d: %w", s, err)
		}
	}
	if n := ran.Load(); n != int64(stages*per) {
		return fmt.Errorf("scheduler ran %d task bodies, want %d", n, stages*per)
	}
	rp.rep.set("sched.dispatch_us", "us", float64(rp.total("sched.run_stage").Microseconds())/float64(stages*per))
	return nil
}

// obsEvents is how many events the recorder replay records: enough to
// wrap the default ring several times.
const obsEvents = 1 << 18

// replayObs records events into a default-sized recorder, the one every
// engine role runs by default.
func replayObs(rp *replayer) error {
	r := obs.NewRecorder(0)
	_ = rp.span("obs.record", func() error {
		for i := 0; i < obsEvents; i++ {
			r.Record(obs.Event{Kind: obs.KindTaskStart, Exec: int32(i & 1), Part: int32(i % partitions)})
		}
		return nil
	})
	if r.Len() != obs.DefaultCapacity || r.Dropped() != obsEvents-obs.DefaultCapacity {
		return fmt.Errorf("recorder holds %d events and dropped %d, want %d and %d",
			r.Len(), r.Dropped(), obs.DefaultCapacity, obsEvents-obs.DefaultCapacity)
	}
	rp.rep.set("obs.record_ns", "ns", float64(rp.total("obs.record").Nanoseconds())/obsEvents)
	return nil
}

// wcWeigh is WordCount's checksum term: count·(1 + len(word) mod 7).
func wcWeigh(k string, v int64) float64 {
	return float64(v) * float64(1+len(strings.TrimSpace(k))%7)
}

func replayWordCount(rp *replayer) error {
	p := wcParams
	lines := make([][]string, partitions)
	_ = rp.span("datagen.generate", func() error {
		for i := range lines {
			lines[i] = datagen.Words(rp.seed+int64(i), p.DistinctKeys, p.WordsPerLine, p.Lines/partitions)
		}
		return nil
	})
	words := make([][]string, partitions)
	_ = rp.span("bench.prepare", func() error {
		for i, ls := range lines {
			for _, l := range ls {
				words[i] = append(words[i], strings.Fields(l)...)
			}
		}
		return nil
	})
	ops := aggOps(shuffle.StringKey().Hash, decompose.Codec[string](decompose.StringCodec{}),
		decompose.Codec[int64](decompose.Int64Codec{}), func(a, b int64) int64 { return a + b }, wcWeigh)
	merged, err := replayExchange(rp, ops, func(i int, emit func(string, int64)) {
		for _, w := range words[i] {
			emit(w, 1)
		}
	})
	if err != nil {
		return fmt.Errorf("shuffle replay: %w", err)
	}
	if merged.sum != rp.ref {
		return fmt.Errorf("replayed word counts fold to %v, the job's answer is %v", merged.sum, rp.ref)
	}
	return replayCache(rp, decompose.Codec[string](decompose.StringCodec{}), lines,
		func(s string) float64 { return float64(len(s)) })
}

func replayLogReg(rp *replayer) error {
	p := lrParams
	points := make([][]datagen.LabeledPoint, partitions)
	_ = rp.span("datagen.generate", func() error {
		for i := range points {
			points[i] = datagen.Points(rp.seed+int64(i), p.Points/partitions, p.Dim)
		}
		return nil
	})
	// LR has no shuffle of its own; the replay aggregates the points by
	// label (KMeans' VecSum shape), so the shuffle layer is measured on
	// this workload's records too.
	ops := aggOps(shuffle.Int64Key().Hash, decompose.Codec[int64](decompose.Int64Codec{}),
		decompose.Codec[workloads.VecSum](workloads.VecSumCodec{Dim: p.Dim}), workloads.VecSum.Add,
		func(_ int64, v workloads.VecSum) float64 { return float64(v.Count) })
	merged, err := replayExchange(rp, ops, func(i int, emit func(int64, workloads.VecSum)) {
		for _, pt := range points[i] {
			emit(int64(pt.Label), workloads.VecSum{Sum: pt.Features, Count: 1})
		}
	})
	if err != nil {
		return fmt.Errorf("shuffle replay: %w", err)
	}
	if want := float64(partitions * (p.Points / partitions)); merged.sum != want {
		return fmt.Errorf("replayed label counts sum to %v, want %v points", merged.sum, want)
	}
	return replayCache(rp, decompose.Codec[datagen.LabeledPoint](workloads.LabeledPointCodec{Dim: p.Dim}), points,
		func(pt datagen.LabeledPoint) float64 { return pt.Label })
}

func replayPageRank(rp *replayer) error {
	p := prParams
	edges := make([][]datagen.Edge, partitions)
	_ = rp.span("datagen.generate", func() error {
		for i := range edges {
			edges[i] = datagen.Graph(rp.seed+int64(i), p.Vertices, p.Edges/partitions, p.Skew)
		}
		return nil
	})
	hash := shuffle.Int64Key().Hash
	ops := groupOps(hash, decompose.Codec[int64](decompose.Int64Codec{}), decompose.Codec[int64](decompose.Int64Codec{}),
		func(_ int64, dst int64) float64 { return float64(dst) })
	merged, err := replayExchange(rp, ops, func(i int, emit func(int64, int64)) {
		for _, e := range edges[i] {
			emit(e.Src, e.Dst)
		}
	})
	if err != nil {
		return fmt.Errorf("shuffle replay: %w", err)
	}
	if want := partitions * (p.Edges / partitions); merged.records != want {
		return fmt.Errorf("replayed adjacency holds %d edges, want %d", merged.records, want)
	}

	// The cached adjacency: one (vertex, neighbours) pair per source,
	// placed by the same hash partitioning as the grouped shuffle.
	adj := make([][]decompose.Pair[int64, []int64], partitions)
	_ = rp.span("bench.prepare", func() error {
		lists := make([]map[int64][]int64, partitions)
		for i := range lists {
			lists[i] = map[int64][]int64{}
		}
		for _, es := range edges {
			for _, e := range es {
				l := lists[shuffle.Partition(hash(e.Src), partitions)]
				l[e.Src] = append(l[e.Src], e.Dst)
			}
		}
		for i, l := range lists {
			for v, ns := range l {
				adj[i] = append(adj[i], decompose.Pair[int64, []int64]{Key: v, Value: ns})
			}
		}
		return nil
	})
	codec := decompose.PairCodec[int64, []int64]{KeyCodec: decompose.Int64Codec{}, ValueCodec: decompose.Int64SliceCodec{}}
	return replayCache(rp, decompose.Codec[decompose.Pair[int64, []int64]](codec), adj,
		func(kv decompose.Pair[int64, []int64]) float64 { return float64(len(kv.Value)) })
}
