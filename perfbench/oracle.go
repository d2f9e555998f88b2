package main

import (
	"context"
	"fmt"
	"math"

	"repro/internal/md"
)

// mdOracle is the benchmark's adapter from core.Oracle to the molecular
// dynamics simulation. md.Oracle keeps an unsynchronised run counter for
// its seeds, which races under the wrapper's oracle fan-out and makes the
// answer to a row depend on call order. This adapter builds a fresh
// md.System per call, seeded from the workload seed and the row's bits, so
// concurrent runs share nothing and re-running a row reproduces its
// answer exactly — which is what lets the benchmark check served answers
// against the oracle after timing.
//
// Config.Workers is fixed at 1: the wrapper already fans oracle runs over
// GOMAXPROCS goroutines, and a parallel force loop nested inside each run
// would oversubscribe the cores instead of adding throughput.
type mdOracle struct {
	cfg  md.Config
	rc   md.RunConfig
	seed uint64
	// tr, when set, records an md.run span per call whose parent is
	// parentOf(x).
	tr       *tracer
	parentOf func(x []float64) int32
}

func newMDOracle(cfg md.Config, rc md.RunConfig, seed uint64) *mdOracle {
	cfg.Workers = 1
	return &mdOracle{cfg: cfg, rc: rc, seed: seed}
}

// Dims implements core.Oracle: the paper's five features → contact, mid
// and peak density.
func (o *mdOracle) Dims() (int, int) { return 5, 3 }

// Run implements core.Oracle.
func (o *mdOracle) Run(x []float64) ([]float64, error) {
	if len(x) != 5 {
		return nil, fmt.Errorf("md oracle: want 5 features, got %d", len(x))
	}
	var start int64
	if o.tr != nil {
		start = o.tr.now()
	}
	cfg := o.cfg
	cfg.Seed = rowSeed(o.seed, x)
	p := md.Params{H: x[0], Zp: int(x[1] + 0.5), Zn: int(x[2] + 0.5), C: x[3], D: x[4]}
	sys, err := md.NewSystem(p, cfg)
	if err != nil {
		return nil, err
	}
	res, err := sys.Run(context.Background(), o.rc)
	if err != nil {
		return nil, err
	}
	if o.tr != nil {
		o.tr.record(spanOracle, o.parentOf(x), start, o.tr.now())
	}
	return []float64{res.ContactDensity, res.MidDensity, res.PeakDensity}, nil
}

// rowSeed mixes the workload seed with every feature's bits.
func rowSeed(seed uint64, x []float64) uint64 {
	h := splitmix64(seed)
	for _, v := range x {
		h = splitmix64(h ^ math.Float64bits(v))
	}
	return h
}

// smoothOracle is the ground truth of the serve-hot tenants: a smooth
// 2→1 function with a per-tenant phase. Its gate always passes, so it is
// only ever called to prepare the registry and to check answers.
type smoothOracle struct{ phase float64 }

func (o smoothOracle) Dims() (int, int) { return 2, 1 }

func (o smoothOracle) Run(x []float64) ([]float64, error) {
	return []float64{math.Sin(2*x[0]+o.phase) + 0.5*x[1]*x[1]}, nil
}
