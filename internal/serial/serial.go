// Package serial is a compact, schema-driven binary serializer modelling
// Kryo, the serialization framework the paper's SparkSer baseline uses for
// cached data (§6). Like Kryo it writes varint-compressed integers and
// raw IEEE floats, and — crucially for the experiments — deserialization
// must materialize fresh objects, re-creating the allocation and GC
// pressure that Deca's in-place page accessors avoid (§6.5, Table 5).
package serial

import (
	"encoding/binary"
	"io"
	"math"
	"slices"
)

// Serializer converts values of T to and from a compact byte stream.
// Marshal appends to dst and returns the extended slice (zero-copy style);
// Unmarshal decodes one value from the front of src and returns the number
// of bytes consumed.
type Serializer[T any] interface {
	Marshal(dst []byte, v T) []byte
	Unmarshal(src []byte) (T, int)
}

//
// Primitive wire helpers (Kryo-style varints for integers).
//

// AppendUvarint appends an unsigned varint.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// AppendVarint appends a zig-zag signed varint.
func AppendVarint(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

// Uvarint decodes an unsigned varint from the front of src.
func Uvarint(src []byte) (uint64, int) {
	return binary.Uvarint(src)
}

// Varint decodes a signed varint from the front of src.
func Varint(src []byte) (int64, int) {
	return binary.Varint(src)
}

// AppendFloat64 appends a fixed 8-byte float.
func AppendFloat64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// Float64 decodes a fixed 8-byte float. Truncated input returns 0
// consumed (records may arrive off a wire or a corrupt spill; decoders
// must fail, not panic).
func Float64(src []byte) (float64, int) {
	if len(src) < 8 {
		return 0, 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(src)), 8
}

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// String decodes a length-prefixed string. A malformed prefix or a length
// running past the buffer returns 0 consumed — the error signal every
// record drainer checks — instead of panicking on truncated input.
func String(src []byte) (string, int) {
	n, k := Uvarint(src)
	if k <= 0 || n > uint64(len(src)-k) {
		return "", 0
	}
	return string(src[k : k+int(n)]), k + int(n)
}

//
// Serializers for primitives and common composites.
//

// Int64 is a varint serializer for int64.
type Int64 struct{}

func (Int64) Marshal(dst []byte, v int64) []byte { return AppendVarint(dst, v) }
func (Int64) Unmarshal(src []byte) (int64, int)  { return Varint(src) }

// F64 is a fixed-width serializer for float64.
type F64 struct{}

func (F64) Marshal(dst []byte, v float64) []byte { return AppendFloat64(dst, v) }
func (F64) Unmarshal(src []byte) (float64, int)  { return Float64(src) }

// Str is a serializer for strings.
type Str struct{}

func (Str) Marshal(dst []byte, v string) []byte { return AppendString(dst, v) }
func (Str) Unmarshal(src []byte) (string, int)  { return String(src) }

// F64Slice serializes []float64 with a count prefix. Unmarshal allocates a
// fresh slice — the deserialization cost the experiments measure.
type F64Slice struct{}

func (F64Slice) Marshal(dst []byte, v []float64) []byte {
	dst = AppendUvarint(dst, uint64(len(v)))
	for _, x := range v {
		dst = AppendFloat64(dst, x)
	}
	return dst
}

func (F64Slice) Unmarshal(src []byte) ([]float64, int) {
	n, k := Uvarint(src)
	// Reject malformed prefixes and counts the buffer cannot hold before
	// allocating: 8 bytes per element must fit in what remains.
	if k <= 0 || n > uint64(len(src)-k)/8 {
		return nil, 0
	}
	v := make([]float64, n)
	for i := range v {
		var x float64
		x, _ = Float64(src[k:])
		v[i] = x
		k += 8
	}
	return v, k
}

// I64Slice serializes []int64 with a count prefix.
type I64Slice struct{}

func (I64Slice) Marshal(dst []byte, v []int64) []byte {
	dst = AppendUvarint(dst, uint64(len(v)))
	for _, x := range v {
		dst = AppendVarint(dst, x)
	}
	return dst
}

func (I64Slice) Unmarshal(src []byte) ([]int64, int) {
	n, k := Uvarint(src)
	// Varint elements take at least one byte each; a count beyond the
	// remaining bytes is corrupt.
	if k <= 0 || n > uint64(len(src)-k) {
		return nil, 0
	}
	v := make([]int64, n)
	for i := range v {
		x, m := Varint(src[k:])
		if m <= 0 {
			return nil, 0
		}
		v[i] = x
		k += m
	}
	return v, k
}

// Pair serializes a key-value pair given element serializers.
type Pair[K any, V any] struct {
	Key   Serializer[K]
	Value Serializer[V]
}

// KV is the serialized pair value type.
type KV[K any, V any] struct {
	Key   K
	Value V
}

func (p Pair[K, V]) Marshal(dst []byte, v KV[K, V]) []byte {
	dst = p.Key.Marshal(dst, v.Key)
	return p.Value.Marshal(dst, v.Value)
}

func (p Pair[K, V]) Unmarshal(src []byte) (KV[K, V], int) {
	k, kn := p.Key.Unmarshal(src)
	if kn <= 0 {
		return KV[K, V]{}, 0
	}
	v, vn := p.Value.Unmarshal(src[kn:])
	if vn <= 0 {
		return KV[K, V]{}, 0
	}
	return KV[K, V]{Key: k, Value: v}, kn + vn
}

// Slice lifts an element serializer to a slice serializer.
type Slice[T any] struct{ Elem Serializer[T] }

func (s Slice[T]) Marshal(dst []byte, v []T) []byte {
	dst = AppendUvarint(dst, uint64(len(v)))
	for _, x := range v {
		dst = s.Elem.Marshal(dst, x)
	}
	return dst
}

func (s Slice[T]) Unmarshal(src []byte) ([]T, int) {
	n, k := Uvarint(src)
	// Elements take at least one byte each under every Serializer here;
	// larger counts cannot be backed by the buffer.
	if k <= 0 || n > uint64(len(src)-k) {
		return nil, 0
	}
	v := make([]T, n)
	for i := range v {
		var m int
		v[i], m = s.Elem.Unmarshal(src[k:])
		if m <= 0 {
			return nil, 0
		}
		k += m
	}
	return v, k
}

// Func builds a Serializer from two closures, for workload-specific record
// types (the analogue of registering a custom Kryo serializer).
type Func[T any] struct {
	MarshalFunc   func(dst []byte, v T) []byte
	UnmarshalFunc func(src []byte) (T, int)
}

func (f Func[T]) Marshal(dst []byte, v T) []byte { return f.MarshalFunc(dst, v) }
func (f Func[T]) Unmarshal(src []byte) (T, int)  { return f.UnmarshalFunc(src) }

// ReadGrowing reads exactly n bytes into a buffer that doubles as the
// bytes arrive instead of being sized from n up front, so a length read
// off the wire costs only the bytes that actually follow it.
func ReadGrowing(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, 1<<20))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), cap(buf)))
		}
		k, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+k]
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}
