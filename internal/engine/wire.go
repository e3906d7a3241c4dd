package engine

import (
	"bytes"
	"fmt"
	"io"

	"deca/internal/shuffle"
	"deca/internal/transport"
)

// The codec registry: the seam between the generic shuffle operators and
// the payload-agnostic transport. Each keyed-shuffle operator registers
// one wireCodec for its sink shape (built from the same PairOps both
// sides of the exchange share), the exchange hands the transport only
// the sink's own encoders via Payload.Encode/Segments, and frames that
// come back from a fetch decode into a container allocated in the
// *destination* executor's memory manager. The scheduler and the transport never learn
// the payload's generic type. Under the stage-commit protocol every
// fetch — executor-local included — serves an encoded frame so the
// pinned source stays private to its holder; only payloads without a
// wire form fall back to the consuming pointer handover.

// wireCodec is one shuffle's codec-registry entry for sink type S. The
// encode side needs no entry: every sink carries its own EncodeWire (and
// Deca sinks their EncodeSegments), which payloadFor attaches when the
// shuffle is wireable.
type wireCodec[S any] struct {
	// decode rebuilds a container from a frame streaming off r inside
	// executor ex — page bodies land directly in ex's memory manager, the
	// frame is never materialized whole. Nil when the shuffle's sinks
	// cannot round-trip a frame.
	decode func(r shuffle.WireReader, ex *Executor) (S, error)
}

// wireEncoder is the sink-side encode seam every shuffle container
// implements.
type wireEncoder interface {
	EncodeWire(w io.Writer) error
}

// segmentEncoder is the vectored encode seam: Deca containers implement
// it, Object containers (whose frames are built record by record) do not
// and stay on the buffered Encode path.
type segmentEncoder interface {
	EncodeSegments() (*transport.FrameSegments, error)
}

// open resolves a fetched payload into a usable sink on executor ex:
// payloads that crossed by pointer cast directly, already-decoded
// streamed payloads cast too, and legacy Wire payloads decode here. The
// returned sink is owned by the caller either way.
func (wc wireCodec[S]) open(pl transport.Payload, ex *Executor) (S, error) {
	var zero S
	if w, ok := pl.Data.(transport.Wire); ok {
		if wc.decode == nil {
			return zero, fmt.Errorf("engine: received a wire frame but the shuffle has no decoder")
		}
		return wc.decode(bytes.NewReader(w.Frame), ex)
	}
	s, ok := pl.Data.(S)
	if !ok {
		return zero, fmt.Errorf("engine: shuffle payload has type %T, want %T", pl.Data, zero)
	}
	return s, nil
}

// frameOpen returns the streaming-decode hook the fetch pipeline hands
// to Transport.Fetch: the codec's decoder run against the wire stream,
// reporting the decoded container's own footprint for fetch budgeting.
// Nil when the shuffle has no decoder (pointer-handover payloads).
func (wc wireCodec[S]) frameOpen(ex *Executor) transport.FrameOpen {
	if wc.decode == nil {
		return nil
	}
	return func(r transport.FrameReader, size int64) (transport.Decoded, error) {
		s, err := wc.decode(r, ex)
		if err != nil {
			return transport.Decoded{}, err
		}
		mem := size
		if sb, ok := any(s).(interface{ SizeBytes() int64 }); ok {
			mem = sb.SizeBytes()
		}
		return transport.Decoded{Data: s, MemBytes: mem}, nil
	}
}

// payloadFor wraps a sink into a transport payload. On a wireable
// shuffle it attaches the sink's frame encoder so any wire-capable
// transport can ship it, and for Deca containers the segment encoder so
// the serve path can writev pages straight from the pinned group.
func (wc wireCodec[S]) payloadFor(s S, ex *Executor, sizeBytes, spilledBytes int64) transport.Payload {
	pl := transport.Payload{
		Data:        s,
		SrcExecutor: ex.id,
		Bytes:       sizeBytes + spilledBytes,
		MemBytes:    sizeBytes,
	}
	if wc.decode == nil {
		return pl
	}
	if we, ok := any(s).(wireEncoder); ok {
		pl.Encode = we.EncodeWire
	}
	if se, ok := any(s).(segmentEncoder); ok {
		pl.Segments = se.EncodeSegments
	}
	return pl
}

// wireable reports whether this shuffle's sinks can round-trip a wire
// frame: a Deca-flavoured sink (decaSink) encodes through its codecs,
// an object-flavoured one needs the Kryo-style serializers. A
// non-wireable shuffle gets a codec without a decoder, so payloadFor
// attaches no encoder and its payloads fall back to the transport's
// consuming pointer handover (single-process only) instead of failing
// at serve time.
func (o PairOps[K, V]) wireable(decaSink bool) bool {
	return decaSink || (o.KeySer != nil && o.ValSer != nil)
}

// aggWireCodec builds the codec-registry entry for ReduceByKey's sinks.
// The frame is self-describing (a kind byte leads), and both ends derive
// the container flavour from the same Config and PairOps, so the sink
// encodes itself and decode dispatches on the mode.
func aggWireCodec[K comparable, V any](
	ctx *Context, ops PairOps[K, V], combine func(V, V) V,
) wireCodec[aggSink[K, V]] {
	if !ops.wireable(ops.decaAble(ctx)) {
		return wireCodec[aggSink[K, V]]{}
	}
	return wireCodec[aggSink[K, V]]{
		decode: func(r shuffle.WireReader, ex *Executor) (aggSink[K, V], error) {
			if ops.decaAble(ctx) {
				return shuffle.DecodeDecaAgg(r, ex.mem, combine, ops.KeyCodec, ops.ValCodec, ctx.conf.SpillDir)
			}
			return shuffle.DecodeObjectAgg(r, combine, shuffle.ObjectAggConfig[K, V]{
				KeySer: ops.KeySer, ValSer: ops.ValSer,
				SpillDir: ctx.conf.SpillDir, EntrySize: ops.EntrySize,
			})
		},
	}
}

// groupWireCodec builds the codec-registry entry for GroupByKey's sinks.
func groupWireCodec[K comparable, V any](
	ctx *Context, ops PairOps[K, V],
) wireCodec[groupSink[K, V]] {
	if !ops.wireable(ops.decaGroupAble(ctx)) {
		return wireCodec[groupSink[K, V]]{}
	}
	return wireCodec[groupSink[K, V]]{
		decode: func(r shuffle.WireReader, ex *Executor) (groupSink[K, V], error) {
			if ops.decaGroupAble(ctx) {
				return shuffle.DecodeDecaGroup(r, ex.mem, ops.KeyCodec, ops.ValCodec, ctx.conf.SpillDir)
			}
			return shuffle.DecodeObjectGroup(r, shuffle.ObjectGroupConfig[K, V]{
				KeySer: ops.KeySer, ValSer: ops.ValSer,
				SpillDir: ctx.conf.SpillDir, EntrySize: ops.EntrySize,
			})
		},
	}
}

// sortWireCodec builds the codec-registry entry for SortByKey's sinks.
func sortWireCodec[K comparable, V any](
	ctx *Context, ops PairOps[K, V],
) wireCodec[sortSink[K, V]] {
	if !ops.wireable(ctx.Mode() == ModeDeca && ops.KeyCodec != nil && ops.ValCodec != nil) {
		return wireCodec[sortSink[K, V]]{}
	}
	return wireCodec[sortSink[K, V]]{
		decode: func(r shuffle.WireReader, ex *Executor) (sortSink[K, V], error) {
			if ctx.Mode() == ModeDeca && ops.KeyCodec != nil && ops.ValCodec != nil {
				return shuffle.DecodeDecaSort(r, ex.mem, ops.Key.Less, ops.KeyCodec, ops.ValCodec, ctx.conf.SpillDir)
			}
			return shuffle.DecodeObjectSort(r, ops.Key.Less, shuffle.ObjectSortConfig[K, V]{
				KeySer: ops.KeySer, ValSer: ops.ValSer,
				SpillDir: ctx.conf.SpillDir, EntrySize: ops.EntrySize,
			})
		},
	}
}
