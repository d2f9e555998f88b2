package core

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// atomicOracle is a concurrency-safe analytic oracle.
type atomicOracle struct {
	calls atomic.Int64
}

func (o *atomicOracle) Dims() (int, int) { return 2, 1 }

func (o *atomicOracle) Run(x []float64) ([]float64, error) {
	o.calls.Add(1)
	return []float64{math.Sin(x[0]) + 0.5*x[1]}, nil
}

// pretrainedWrapper returns a wrapper whose shard surrogates have
// already fit the toy oracle over the query region.
func pretrainedWrapper(t *testing.T, rng *xrand.Rand, cfg ShardedConfig) (*ShardedWrapper, *atomicOracle) {
	t.Helper()
	oracle := &atomicOracle{}
	factory := NewNNSurrogateFactory(2, 1, []int{24}, 0.1, rng, func(s *NNSurrogate) {
		s.Epochs = 120
		s.MCPasses = 10
	})
	w := NewShardedWrapper(oracle, factory, cfg)
	design := tensor.NewMatrix(120, 2)
	for i := 0; i < 120; i++ {
		design.Set(i, 0, rng.Range(-2, 2))
		design.Set(i, 1, rng.Range(-1, 1))
	}
	if err := w.Pretrain(design); err != nil {
		t.Fatal(err)
	}
	return w, oracle
}

// TestWrapperConcurrentQueries hammers Query and QueryBatch from many
// goroutines while retraining is enabled, locking in the concurrency
// contract: lock-free surrogate reads run beside sample appends and
// background refits. Run with -race.
func TestWrapperConcurrentQueries(t *testing.T) {
	forEachShards(t, testWrapperConcurrentQueries)
}

func testWrapperConcurrentQueries(t *testing.T, shards int) {
	rng := xrand.New(404)
	w, _ := pretrainedWrapper(t, rng, ShardedConfig{
		Shards: shards, MinTrainSamples: 10, RetrainEvery: 40, UQThreshold: 0.5,
	})

	const goroutines = 8
	const iters = 25
	var surrogateHits atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			grng := xrand.New(seed)
			for it := 0; it < iters; it++ {
				if it%3 == 0 {
					batch := tensor.NewMatrix(8, 2)
					for i := 0; i < batch.Rows; i++ {
						// Mostly in-distribution rows, a few far outside
						// so the UQ gate forces oracle fallbacks and
						// concurrent retrains.
						scale := 1.0
						if grng.Float64() < 0.1 {
							scale = 50
						}
						batch.Set(i, 0, scale*grng.Range(-2, 2))
						batch.Set(i, 1, scale*grng.Range(-1, 1))
					}
					res, err := w.QueryBatch(batch)
					if err != nil {
						t.Error(err)
						return
					}
					for i, r := range res {
						if r.Err != nil {
							t.Errorf("row %d: %v", i, r.Err)
							return
						}
						if len(r.Y) != 1 {
							t.Errorf("row %d: bad output %v", i, r.Y)
							return
						}
						if r.Src == FromSurrogate {
							surrogateHits.Add(1)
						}
					}
				} else {
					x := []float64{grng.Range(-2, 2), grng.Range(-1, 1)}
					y, src, _, err := w.Query(x)
					if err != nil {
						t.Error(err)
						return
					}
					if len(y) != 1 {
						t.Errorf("bad output %v", y)
						return
					}
					if src == FromSurrogate {
						surrogateHits.Add(1)
					}
				}
			}
		}(uint64(500 + g))
	}
	wg.Wait()
	mustWait(t, w)

	if surrogateHits.Load() == 0 {
		t.Fatal("no queries served by the surrogate under concurrency")
	}
	led := w.Ledger()
	if led.NLookup != int(surrogateHits.Load()) {
		t.Fatalf("ledger lookups %d != observed surrogate answers %d", led.NLookup, surrogateHits.Load())
	}
	if got := w.TrainingSetSize(); got != led.NTrain {
		t.Fatalf("training set size %d != ledger simulations %d", got, led.NTrain)
	}
}

// warmGateStubs builds a wrapper whose every shard serves a
// shardGateStub from the start, pinning routing and accounting exactly.
func warmGateStubs(oracle Oracle, shards int) *ShardedWrapper {
	w := NewShardedWrapper(oracle, func() Surrogate { return &shardGateStub{} }, ShardedConfig{
		Shards: shards, MinTrainSamples: 1, UQThreshold: 0.5,
	})
	for si := 0; si < shards; si++ {
		w.WarmStart(si, &shardGateStub{trained: true}, 0)
	}
	return w
}

// TestQueryBatchMatchesQuerySemantics checks the batch paths agree with
// the scalar path on answers, provenance and training-set accounting:
// Query ≡ QueryBatch ≡ QueryBatchInto.
func TestQueryBatchMatchesQuerySemantics(t *testing.T) {
	forEachShards(t, testQueryBatchMatchesQuerySemantics)
}

func testQueryBatchMatchesQuerySemantics(t *testing.T, shards int) {
	rng := xrand.New(405)
	batch := tensor.NewMatrix(16, 2)
	for i := 0; i < 8; i++ { // in-gate rows served by the surrogate
		batch.Set(i, 0, rng.Range(-1, 1))
		batch.Set(i, 1, rng.Range(-1, 1))
	}
	for i := 8; i < 16; i++ { // out-of-gate rows must simulate
		batch.Set(i, 0, rng.Range(80, 100))
		batch.Set(i, 1, rng.Range(80, 100))
	}
	into := make([]BatchResult, batch.Rows)
	serve := map[string]func(w *ShardedWrapper) ([]BatchResult, error){
		"Query": func(w *ShardedWrapper) ([]BatchResult, error) {
			res := make([]BatchResult, batch.Rows)
			for i := range res {
				y, src, std, err := w.Query(batch.Row(i))
				res[i] = BatchResult{Y: y, Src: src, Std: std, Err: err}
			}
			return res, nil
		},
		"QueryBatch": func(w *ShardedWrapper) ([]BatchResult, error) { return w.QueryBatch(batch) },
		"QueryBatchInto": func(w *ShardedWrapper) ([]BatchResult, error) {
			return into, w.QueryBatchInto(batch, into)
		},
	}
	for name, query := range serve {
		oracle := &atomicOracle{}
		w := warmGateStubs(oracle, shards)
		res, err := query(w)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sim := 0
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("%s row %d: %v", name, i, r.Err)
			}
			switch r.Src {
			case FromSurrogate:
				if i >= 8 {
					t.Fatalf("%s: rejected row %d served by surrogate", name, i)
				}
				if len(r.Std) != 1 || r.Y[0] != 42 {
					t.Fatalf("%s: surrogate row %d bad answer %+v", name, i, r)
				}
			case FromSimulation:
				sim++
				if i < 8 {
					t.Fatalf("%s: in-gate row %d fell back to simulation", name, i)
				}
				truth := math.Sin(batch.At(i, 0)) + 0.5*batch.At(i, 1)
				if math.Abs(r.Y[0]-truth) > 1e-12 {
					t.Fatalf("%s: simulated row %d altered: %g want %g", name, i, r.Y[0], truth)
				}
			}
		}
		if sim != 8 {
			t.Fatalf("%s: %d simulated rows want 8", name, sim)
		}
		if got := oracle.calls.Load(); got != 8 {
			t.Fatalf("%s: oracle ran %d times want 8", name, got)
		}
		if got := w.TrainingSetSize(); got != 8 {
			t.Fatalf("%s: training set grew by %d want 8", name, got)
		}
		led := w.Ledger()
		if led.NLookup != 8 || led.NRejected != 8 || led.NTrain != 8 {
			t.Fatalf("%s: ledger accounting wrong: %+v", name, led)
		}
		mustWait(t, w)
	}
}

// TestQueryBatchEmptyAndColdStart covers the degenerate paths.
func TestQueryBatchEmptyAndColdStart(t *testing.T) {
	forEachShards(t, func(t *testing.T, shards int) {
		oracle := &atomicOracle{}
		factory := NewNNSurrogateFactory(2, 1, []int{8}, 0.1, xrand.New(406), nil)
		w := NewShardedWrapper(oracle, factory, ShardedConfig{
			Shards: shards, MinTrainSamples: 1000, UQThreshold: 0.5,
		})
		if res, err := w.QueryBatch(tensor.NewMatrix(0, 2)); err != nil || res != nil {
			t.Fatalf("empty batch: %v %v", res, err)
		}
		batch := tensor.NewMatrix(4, 2)
		res, err := w.QueryBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Src != FromSimulation || r.Err != nil {
				t.Fatalf("cold-start row %d should simulate: %+v", i, r)
			}
		}
		if oracle.calls.Load() != 4 {
			t.Fatalf("oracle calls %d want 4", oracle.calls.Load())
		}
	})
}
