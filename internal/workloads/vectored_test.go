package workloads

import (
	"testing"

	"deca/internal/engine"
)

// The acceptance bar of the vectored data plane: serving Deca shuffle
// frames as page segments (writev straight from the pinned group,
// sendfile for spill runs) must be invisible to results. WC and PR in
// Deca mode match the Spark (object) reference on the same config, on
// both the in-process and TCP transports, and the Deca runs must actually
// exercise the zero-copy path.
func TestVectoredServeEquivalence(t *testing.T) {
	type job struct {
		name string
		// exact requires bit-equal checksums: WC sums integer counts, so any
		// wire corruption shows. PR sums floats whose merge order varies with
		// fetch arrival, so it gets the standard tolerance instead.
		exact bool
		run   func(cfg Config) (Result, error)
	}
	jobs := []job{
		{"WC", true, func(cfg Config) (Result, error) {
			return WordCount(cfg, WCParams{DistinctKeys: 2000, WordsPerLine: 8, Lines: 3000})
		}},
		{"PR", false, func(cfg Config) (Result, error) {
			return PageRank(cfg, GraphParams{Vertices: 500, Edges: 4000, Skew: 1.1, Iterations: 3})
		}},
	}
	for _, kind := range []engine.TransportKind{engine.TransportInProcess, engine.TransportTCP} {
		for _, j := range jobs {
			t.Run(j.name+"/"+kind.String(), func(t *testing.T) {
				cfg := Config{
					Mode: engine.ModeSpark, NumExecutors: 4, Parallelism: 2, Partitions: 8,
					TransportKind: kind, SpillDir: t.TempDir(), Seed: 1,
				}
				spark, err := j.run(cfg)
				if err != nil {
					t.Fatalf("spark: %v", err)
				}
				cfg.Mode = engine.ModeDeca
				deca, err := j.run(cfg)
				if err != nil {
					t.Fatalf("deca: %v", err)
				}
				if j.exact {
					if deca.Checksum != spark.Checksum {
						t.Errorf("checksum: deca %v != spark %v", deca.Checksum, spark.Checksum)
					}
				} else if !approxEqual(deca.Checksum, spark.Checksum) {
					t.Errorf("checksum: deca %v !~ spark %v", deca.Checksum, spark.Checksum)
				}
				if deca.PagesServedZeroCopy == 0 {
					t.Error("deca run served no pages zero-copy")
				}
			})
		}
	}
}

// Spill-backed outputs must serve correctly through the sendfile path:
// WC under a forced shuffle-spill threshold matches the Spark reference,
// with spill bytes actually crossing the TCP transport via sendfile.
func TestVectoredServeSpillEquivalence(t *testing.T) {
	params := WCParams{DistinctKeys: 4000, WordsPerLine: 8, Lines: 6000}
	cfg := Config{
		Mode: engine.ModeSpark, NumExecutors: 2, Parallelism: 2, Partitions: 4,
		TransportKind: engine.TransportTCP, SpillDir: t.TempDir(), Seed: 1,
		ShuffleSpillThreshold: 16 << 10,
	}
	spark, err := WordCount(cfg, params)
	if err != nil {
		t.Fatalf("spark: %v", err)
	}
	cfg.Mode = engine.ModeDeca
	deca, err := WordCount(cfg, params)
	if err != nil {
		t.Fatalf("deca: %v", err)
	}
	if deca.Checksum != spark.Checksum {
		t.Errorf("checksum: deca %v != spark %v", deca.Checksum, spark.Checksum)
	}
	if deca.ShuffleSpillBytes == 0 {
		t.Fatal("threshold did not force shuffle spills; the sendfile path was not exercised")
	}
	if deca.BytesSendfile == 0 {
		t.Error("deca run shipped no spill bytes via sendfile")
	}
}

// TestMultiprocVectoredServe: the vectored data plane across two real
// deca-executor processes produces the Spark reference's exact WC
// answer, with the executors' serve counters synced back to the driver.
func TestMultiprocVectoredServe(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns executor processes")
	}
	params := WCParams{DistinctKeys: 2_000, WordsPerLine: 8, Lines: 3_000}
	cfg := multiprocCfg(t, 2)
	cfg.Mode = engine.ModeSpark
	spark, err := WordCount(cfg, params)
	if err != nil {
		t.Fatalf("spark: %v", err)
	}
	cfg = multiprocCfg(t, 2)
	cfg.Mode = engine.ModeDeca
	deca, err := WordCount(cfg, params)
	if err != nil {
		t.Fatalf("deca: %v", err)
	}
	if deca.Checksum != spark.Checksum {
		t.Errorf("checksum: deca %v != spark %v", deca.Checksum, spark.Checksum)
	}
	if deca.PagesServedZeroCopy == 0 {
		t.Error("deca multiproc run synced no zero-copy serve pages to the driver")
	}
}
