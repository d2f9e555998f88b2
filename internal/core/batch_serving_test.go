package core

import (
	"math"
	"testing"

	"repro/internal/raceflag"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// batchServingWrapper builds a pretrained wrapper with a narrow compiled
// batch width so wide batches must chunk internally.
func batchServingWrapper(t testing.TB, shards, maxBatch int, dropout float64) *ShardedWrapper {
	t.Helper()
	rng := xrand.New(0xbb17c)
	oracle := OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		return []float64{math.Sin(x[0]) + 0.5*x[1]}, nil
	}}
	factory := NewNNSurrogateFactory(2, 1, []int{16}, dropout, rng, func(s *NNSurrogate) {
		s.Epochs = 50
		s.MCPasses = 8
		s.MaxBatch = maxBatch
	})
	w := NewShardedWrapper(oracle, factory, ShardedConfig{
		Shards: shards, MinTrainSamples: 10, UQThreshold: 100,
	})
	design := tensor.NewMatrix(40*shards, 2)
	for i := 0; i < design.Rows; i++ {
		design.Set(i, 0, rng.Range(-1, 1))
		design.Set(i, 1, rng.Range(-1, 1))
	}
	if err := w.Pretrain(design); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestQueryBatchIntoZeroAlloc pins the tentpole serving contract: a
// steady-state QueryBatchInto loop that reuses one result slice performs
// zero heap allocations — shard partition, surrogate staging, UQ
// scratch, miss list and per-row result buffers are all pooled or reused.
func TestQueryBatchIntoZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items under -race; alloc counts through pooled paths are meaningless")
	}
	forEachShards(t, func(t *testing.T, shards int) {
		w := batchServingWrapper(t, shards, 64, 0.1)
		batch := tensor.NewMatrix(64, 2)
		rng := xrand.New(0xa5)
		for i := 0; i < batch.Rows; i++ {
			batch.Set(i, 0, rng.Range(-1, 1))
			batch.Set(i, 1, rng.Range(-1, 1))
		}
		res := make([]BatchResult, batch.Rows)
		if err := w.QueryBatchInto(batch, res); err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Src != FromSurrogate {
				t.Fatalf("row %d fell back to the oracle; alloc pin needs pure surrogate serving", i)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := w.QueryBatchInto(batch, res); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state QueryBatchInto allocates %g times per batch, want 0", allocs)
		}
	})
}

// TestQueryBatchChunksWiderThanCompiledWidth checks that batches wider
// than the surrogate's compiled MaxBatch are split across fused chunks
// with identical results to single-row queries (deterministic surrogate:
// no dropout, so predictions are exactly reproducible).
func TestQueryBatchChunksWiderThanCompiledWidth(t *testing.T) {
	forEachShards(t, func(t *testing.T, shards int) {
		w := batchServingWrapper(t, shards, 8, 0) // width 8, deterministic
		rng := xrand.New(0xa6)
		batch := tensor.NewMatrix(30*shards, 2) // ~30 rows per shard: several 8-row chunks each
		for i := 0; i < batch.Rows; i++ {
			batch.Set(i, 0, rng.Range(-1, 1))
			batch.Set(i, 1, rng.Range(-1, 1))
		}
		res, err := w.QueryBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res {
			if res[i].Src != FromSurrogate {
				t.Fatalf("row %d not surrogate-served", i)
			}
			want := servingModel(w, batch.Row(i)).Predict(batch.Row(i))
			if math.Abs(res[i].Y[0]-want[0]) > 1e-12 {
				t.Fatalf("row %d: chunked batch %g vs single predict %g", i, res[i].Y[0], want[0])
			}
			if res[i].Std[0] != 0 {
				t.Fatalf("deterministic surrogate row %d std %g, want 0", i, res[i].Std[0])
			}
		}
	})
}

// TestShardedQueryBatchIntoReusesBuffers drives the sharded wrapper's
// buffer-reusing batch path across chunk-splitting widths and checks the
// answers stay consistent with the direct QueryBatch results.
func TestShardedQueryBatchIntoReusesBuffers(t *testing.T) {
	rng := xrand.New(0xbb18)
	oracle := OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		return []float64{x[0] - x[1]}, nil
	}}
	factory := NewNNSurrogateFactory(2, 1, []int{12}, 0, rng, func(s *NNSurrogate) {
		s.Epochs = 30
		s.MCPasses = 4
		s.MaxBatch = 4 // far narrower than the batches served
	})
	w := NewShardedWrapper(oracle, factory, ShardedConfig{
		Shards: 2, MinTrainSamples: 10, UQThreshold: 100,
	})
	design := tensor.NewMatrix(64, 2)
	for i := 0; i < design.Rows; i++ {
		design.Set(i, 0, rng.Range(-1, 1))
		design.Set(i, 1, rng.Range(-1, 1))
	}
	if err := w.Pretrain(design); err != nil {
		t.Fatal(err)
	}
	batch := tensor.NewMatrix(30, 2)
	for i := 0; i < batch.Rows; i++ {
		batch.Set(i, 0, rng.Range(-1, 1))
		batch.Set(i, 1, rng.Range(-1, 1))
	}
	want, err := w.QueryBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	res := make([]BatchResult, batch.Rows)
	for trial := 0; trial < 3; trial++ { // reuse res across calls
		if err := w.QueryBatchInto(batch, res); err != nil {
			t.Fatal(err)
		}
		for i := range res {
			if res[i].Src != FromSurrogate {
				t.Fatalf("trial %d row %d not surrogate-served", trial, i)
			}
			if math.Abs(res[i].Y[0]-want[i].Y[0]) > 1e-12 {
				t.Fatalf("trial %d row %d: Into %g vs QueryBatch %g", trial, i, res[i].Y[0], want[i].Y[0])
			}
		}
	}
}
