package engine

import (
	"runtime"
	"sync/atomic"
	"testing"

	"deca/internal/decompose"
	"deca/internal/serial"
)

// countingCodec and countingSer count the records their decoders
// materialize, so a test can tell a metadata read from a decode pass.
type countingCodec struct {
	decompose.Int64Codec
	decodes *atomic.Int64
}

func (c countingCodec) Decode(seg []byte) (int64, int) {
	c.decodes.Add(1)
	return c.Int64Codec.Decode(seg)
}

type countingSer struct {
	serial.Int64
	decodes *atomic.Int64
}

func (s countingSer) Unmarshal(src []byte) (int64, int) {
	s.decodes.Add(1)
	return s.Int64.Unmarshal(src)
}

// TestCountReadsBlockMetadata checks that Materialize and Count on a
// persisted dataset decode no record at any storage level — the count
// comes from the cache block — and that they still agree with an
// iterated count, also when a tight budget has swapped blocks out.
func TestCountReadsBlockMetadata(t *testing.T) {
	const parts, perPart = 8, 500
	levels := []struct {
		level StorageLevel
		mode  Mode
	}{
		{StorageObjects, ModeSpark},
		{StorageSerialized, ModeSparkSer},
		{StorageDeca, ModeDeca},
	}
	for _, budget := range []int64{0, 8 * 1024} {
		for _, tc := range levels {
			name := tc.level.String()
			if budget > 0 {
				name += "/swapped"
			}
			t.Run(name, func(t *testing.T) {
				ctx := New(Config{
					Parallelism:     2,
					Mode:            tc.mode,
					PageSize:        1024,
					MemoryBudget:    budget,
					StorageFraction: 0.5,
					SpillDir:        t.TempDir(),
				})
				defer ctx.Close()
				var decodes atomic.Int64
				d := Generate(ctx, parts, func(p int, emit func(int64)) {
					for i := int64(0); i < perPart; i++ {
						emit(int64(p)*1000 + i)
					}
				})
				d.Persist(tc.level, Storage[int64]{
					Estimate: func(int64) int { return 16 },
					Ser:      countingSer{decodes: &decodes},
					Codec:    countingCodec{decodes: &decodes},
				})

				if err := Materialize(d); err != nil {
					t.Fatal(err)
				}
				if n := decodes.Load(); n != 0 {
					t.Errorf("Materialize decoded %d records, want 0", n)
				}
				got, err := Count(d)
				if err != nil {
					t.Fatal(err)
				}
				st := ctx.CacheManager().Stats()
				if budget > 0 && (st.Evictions == 0 || st.SwapInBytes == 0) {
					t.Fatalf("budget %d swapped nothing out and back: %+v", budget, st)
				}
				// An object block's swap-in deserializes by design: that
				// restores the block, it does not count it.
				if n := decodes.Load(); n != 0 && (budget == 0 || tc.level != StorageObjects) {
					t.Errorf("Count decoded %d records, want 0", n)
				}

				all, err := Collect(d)
				if err != nil {
					t.Fatal(err)
				}
				if tc.level != StorageObjects && decodes.Load() == 0 {
					t.Fatal("Collect decoded nothing: the counting decoder is not wired in")
				}
				iterated, err := Count(Map(d, func(v int64) int64 { return v }))
				if err != nil {
					t.Fatal(err)
				}
				if got != parts*perPart || got != int64(len(all)) || got != iterated {
					t.Errorf("Count = %d, collected %d, iterated %d, want %d", got, len(all), iterated, parts*perPart)
				}
			})
		}
	}
}

// TestCountEmptyPartitions covers persisted partitions that hold no
// records at every storage level.
func TestCountEmptyPartitions(t *testing.T) {
	for _, tc := range []struct {
		level StorageLevel
		mode  Mode
	}{
		{StorageObjects, ModeSpark},
		{StorageSerialized, ModeSparkSer},
		{StorageDeca, ModeDeca},
	} {
		t.Run(tc.level.String(), func(t *testing.T) {
			ctx := testCtx(t, tc.mode)
			d := Generate(ctx, 4, func(p int, emit func(int64)) {
				if p%2 == 1 {
					emit(int64(p))
				}
			})
			d.Persist(tc.level, Storage[int64]{Ser: serial.Int64{}, Codec: decompose.Int64Codec{}})
			for pass := 0; pass < 2; pass++ {
				n, err := Count(d)
				if err != nil {
					t.Fatalf("pass %d: %v", pass, err)
				}
				if n != 2 {
					t.Fatalf("pass %d: Count = %d, want 2", pass, n)
				}
			}
		})
	}
}

// TestBuildDecaBlockAllocatesOnlyPages checks that a Deca-cached
// partition decomposes straight into its pages: building it allocates
// the page footprint plus a constant that does not grow with the record
// count, so no staging copy of the partition exists on the way.
func TestBuildDecaBlockAllocatesOnlyPages(t *testing.T) {
	const slack = 4 << 10
	codec := decompose.PairCodec[int64, float64]{
		KeyCodec:   decompose.Int64Codec{},
		ValueCodec: decompose.Float64Codec{},
	}
	overhead := func(n int) int64 {
		// A fresh context per measurement: every page is a fresh heap
		// allocation, so the footprint is charged in full.
		ctx := New(Config{NumExecutors: 1, Parallelism: 1, Mode: ModeDeca, EventBuffer: -1})
		defer ctx.Close()
		d := Generate(ctx, 1, func(_ int, emit func(decompose.Pair[int64, float64])) {
			for i := range n {
				emit(decompose.Pair[int64, float64]{Key: int64(i), Value: float64(i)})
			}
		})
		d.Persist(StorageDeca, Storage[decompose.Pair[int64, float64]]{Codec: codec})
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		blk, err := d.buildBlock(0, ctx.executorFor(0))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		defer blk.Drop()
		if got := blk.(interface{ Count() int }).Count(); got != n {
			t.Fatalf("block holds %d records, want %d", got, n)
		}
		return int64(after.TotalAlloc-before.TotalAlloc) - blk.MemBytes()
	}
	small, large := overhead(10_000), overhead(100_000)
	t.Logf("allocated beyond the pages: %d B at 10k records, %d B at 100k", small, large)
	if small > slack || large > slack {
		t.Errorf("building allocated %d B (10k) and %d B (100k) beyond the pages, want at most %d", small, large, slack)
	}
}
