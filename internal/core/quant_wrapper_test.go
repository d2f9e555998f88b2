package core

import (
	"math"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// quantWrapper builds a pretrained wrapper serving its quantized programs.
// dropout 0 keeps MC passes deterministic so quant answers are exactly
// reproducible and predictive std is exactly zero.
func quantWrapper(t testing.TB, shards int, dropout, uqThreshold float64) *ShardedWrapper {
	t.Helper()
	rng := xrand.New(0x9a27)
	oracle := OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		return []float64{math.Sin(x[0]) + 0.5*x[1]}, nil
	}}
	factory := NewNNSurrogateFactory(2, 1, []int{16}, dropout, rng, func(s *NNSurrogate) {
		s.Epochs = 50
		s.MCPasses = 8
	})
	w := NewShardedWrapper(oracle, factory, ShardedConfig{
		Shards: shards, MinTrainSamples: 10, UQThreshold: uqThreshold, Quantized: true,
	})
	design := tensor.NewMatrix(40*shards, 2)
	for i := 0; i < design.Rows; i++ {
		design.Set(i, 0, rng.Range(-1, 1))
		design.Set(i, 1, rng.Range(-1, 1))
	}
	if err := w.Pretrain(design); err != nil {
		t.Fatal(err)
	}
	for si, s := range w.shards {
		if surp := s.active.Load(); surp == nil || !(*surp).(*NNSurrogate).QuantizedReady() {
			t.Fatalf("Quantized wrapper did not compile a quantized program for shard %d on Pretrain", si)
		}
	}
	return w
}

// TestWrapperQuantizedServing checks the headline contract: a Quantized
// wrapper serves lookups through the int8 program, counts them, and the
// answers stay within the compile-time error bound of the float program.
func TestWrapperQuantizedServing(t *testing.T) {
	forEachShards(t, func(t *testing.T, shards int) {
		w := quantWrapper(t, shards, 0, 100) // threshold far above the gate band
		rng := xrand.New(0x51)
		const n = 25
		clipped := uint64(0) // inputs outside a shard's calibrated envelope
		for k := 0; k < n; k++ {
			x := []float64{rng.Range(-1, 1), rng.Range(-1, 1)}
			y, src, _, err := w.Query(x)
			if err != nil {
				t.Fatal(err)
			}
			if src != FromSurrogate {
				t.Fatalf("query %d not surrogate-served", k)
			}
			sur := servingModel(w, x)
			if _, _, ok := sur.PredictWithUQQuant(x); !ok {
				clipped++
			}
			want := sur.Predict(x)
			if math.Abs(y[0]-want[0]) > sur.QuantErrorBound()+1e-12 {
				t.Fatalf("query %d: quantized %g vs float %g exceeds bound %g",
					k, y[0], want[0], sur.QuantErrorBound())
			}
		}
		queries, fallbacks := w.QuantStats()
		if queries != n {
			t.Fatalf("quant queries = %d, want %d", queries, n)
		}
		if fallbacks != clipped {
			t.Fatalf("fallbacks = %d, want only the %d envelope clips with threshold far outside the gate band", fallbacks, clipped)
		}
	})
}

// TestWrapperQuantBoundaryFallback forces the accept/reject decision into
// the quantization error band: with a deterministic surrogate the
// predictive std is exactly 0, so a threshold of ~0 sits within
// QuantGateBound of the measured std and every lookup must re-run on the
// retained float program.
func TestWrapperQuantBoundaryFallback(t *testing.T) {
	forEachShards(t, func(t *testing.T, shards int) {
		w := quantWrapper(t, shards, 0, 1e-9)
		for si, s := range w.shards {
			if b := (*s.active.Load()).(*NNSurrogate).QuantGateBound(); b <= 1e-9 {
				t.Fatalf("shard %d gate bound %g too small to straddle the test threshold", si, b)
			}
		}
		rng := xrand.New(0x52)
		const n = 10
		for k := 0; k < n; k++ {
			x := []float64{rng.Range(-1, 1), rng.Range(-1, 1)}
			_, src, _, err := w.Query(x)
			if err != nil {
				t.Fatal(err)
			}
			// std is exactly 0 <= threshold, so the float re-run still serves.
			if src != FromSurrogate {
				t.Fatalf("query %d not surrogate-served after float fallback", k)
			}
		}
		queries, fallbacks := w.QuantStats()
		if queries != n || fallbacks != n {
			t.Fatalf("boundary stats = (%d, %d), want every lookup counted and every lookup falling back (%d, %d)",
				queries, fallbacks, n, n)
		}
	})
}

// TestWrapperQuantClipFallback drives an input far outside the calibration
// envelope: QuantizeVec clips, the quantized pass reports !ok, and the
// lookup silently re-runs on the float program instead of serving a
// saturated int8 answer.
func TestWrapperQuantClipFallback(t *testing.T) {
	forEachShards(t, func(t *testing.T, shards int) {
		w := quantWrapper(t, shards, 0, 100)
		x := []float64{60, -60} // trained on [-1,1]^2: clips after scaling
		y, src, _, err := w.Query(x)
		if err != nil {
			t.Fatal(err)
		}
		if src != FromSurrogate {
			t.Fatal("clipped query not surrogate-served")
		}
		want := servingModel(w, x).Predict(x)
		if math.Abs(y[0]-want[0]) > 1e-12 {
			t.Fatalf("clipped query served %g, want exact float answer %g", y[0], want[0])
		}
		_, fallbacks := w.QuantStats()
		if fallbacks == 0 {
			t.Fatal("clipped input did not count a float fallback")
		}
	})
}

// TestWrapperQuantBatchMatchesSingle checks the batched quantized path
// agrees with single-point quantized queries and counts per-row stats.
func TestWrapperQuantBatchMatchesSingle(t *testing.T) {
	forEachShards(t, func(t *testing.T, shards int) {
		w := quantWrapper(t, shards, 0, 100)
		rng := xrand.New(0x53)
		batch := tensor.NewMatrix(17, 2)
		for i := 0; i < batch.Rows; i++ {
			batch.Set(i, 0, rng.Range(-1, 1))
			batch.Set(i, 1, rng.Range(-1, 1))
		}
		q0, _ := w.QuantStats()
		res, err := w.QueryBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		q1, _ := w.QuantStats()
		if q1-q0 != uint64(batch.Rows) {
			t.Fatalf("batch counted %d quant queries, want %d", q1-q0, batch.Rows)
		}
		for i := range res {
			if res[i].Src != FromSurrogate {
				t.Fatalf("row %d not surrogate-served", i)
			}
			y, _, _, err := w.Query(batch.Row(i))
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(res[i].Y[0]-y[0]) > 1e-12 {
				t.Fatalf("row %d: batch %g vs single %g", i, res[i].Y[0], y[0])
			}
		}
	})
}

// TestShardedQuantizedServing checks the sharded plane end to end: the
// wrapped factory quantizes every published generation, both the scalar
// and batched lookup paths serve int8, and the per-wrapper counters move.
func TestShardedQuantizedServing(t *testing.T) {
	rng := xrand.New(0x54)
	oracle := OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		return []float64{x[0] - x[1]}, nil
	}}
	factory := NewNNSurrogateFactory(2, 1, []int{12}, 0, rng, func(s *NNSurrogate) {
		s.Epochs = 30
		s.MCPasses = 4
	})
	w := NewShardedWrapper(oracle, factory, ShardedConfig{
		Shards: 2, MinTrainSamples: 10, UQThreshold: 100, Quantized: true,
	})
	design := tensor.NewMatrix(64, 2)
	for i := 0; i < design.Rows; i++ {
		design.Set(i, 0, rng.Range(-1, 1))
		design.Set(i, 1, rng.Range(-1, 1))
	}
	if err := w.Pretrain(design); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 8; k++ {
		x := []float64{rng.Range(-1, 1), rng.Range(-1, 1)}
		_, src, _, err := w.Query(x)
		if err != nil {
			t.Fatal(err)
		}
		if src != FromSurrogate {
			t.Fatalf("query %d not surrogate-served", k)
		}
	}
	scalarQ, _ := w.QuantStats()
	if scalarQ != 8 {
		t.Fatalf("scalar quant queries = %d, want 8: factory wrap did not quantize the published generation", scalarQ)
	}
	batch := tensor.NewMatrix(30, 2)
	for i := 0; i < batch.Rows; i++ {
		batch.Set(i, 0, rng.Range(-1, 1))
		batch.Set(i, 1, rng.Range(-1, 1))
	}
	res := make([]BatchResult, batch.Rows)
	if err := w.QueryBatchInto(batch, res); err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if res[i].Src != FromSurrogate {
			t.Fatalf("batch row %d not surrogate-served", i)
		}
	}
	batchQ, fallbacks := w.QuantStats()
	if batchQ-scalarQ != uint64(batch.Rows) {
		t.Fatalf("batch counted %d quant queries, want %d", batchQ-scalarQ, batch.Rows)
	}
	if fallbacks != 0 {
		t.Fatalf("unexpected fallbacks = %d with threshold far outside the gate band", fallbacks)
	}
	w.Wait()
}
