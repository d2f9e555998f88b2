package md

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
)

// Profile accumulates the z-resolved ion number density across samples.
type Profile struct {
	H      float64
	Bins   int
	counts []float64
	n      int
}

// NewProfile allocates a profile accumulator over the slit [-H/2, H/2].
func NewProfile(h float64, bins int) *Profile {
	return &Profile{H: h, Bins: bins, counts: make([]float64, bins)}
}

// Accumulate folds the current ion positions (solvent excluded) into the
// histogram.
func (p *Profile) Accumulate(s *System) {
	dz := p.H / float64(p.Bins)
	for i := 0; i < s.N; i++ {
		if s.Kind[i] == Solvent {
			continue
		}
		z := s.Pos[3*i+2] + p.H/2
		b := int(z / dz)
		if b < 0 {
			b = 0
		}
		if b >= p.Bins {
			b = p.Bins - 1
		}
		p.counts[b]++
	}
	p.n++
}

// Result converts accumulated counts to number densities and extracts the
// paper's three target features. The profile is symmetrized about the
// mid-plane (the Hamiltonian is z-symmetric, so averaging the halves
// halves the sampling noise).
func (p *Profile) Result(s *System) *Result {
	res := &Result{
		Profile:    make([]float64, p.Bins),
		BinCenters: make([]float64, p.Bins),
		Samples:    p.n,
	}
	dz := p.H / float64(p.Bins)
	binVol := s.Cfg.L * s.Cfg.L * dz
	for b := 0; b < p.Bins; b++ {
		res.BinCenters[b] = -p.H/2 + (float64(b)+0.5)*dz
		if p.n > 0 {
			res.Profile[b] = p.counts[b] / (float64(p.n) * binVol)
		}
	}
	// Symmetrize.
	for b := 0; b < p.Bins/2; b++ {
		m := (res.Profile[b] + res.Profile[p.Bins-1-b]) / 2
		res.Profile[b] = m
		res.Profile[p.Bins-1-b] = m
	}
	// Contact density: innermost bin the ions can actually reach (the wall
	// excludes centers within ~D/2, so the geometric first bin can be
	// empty); use the first bin at or beyond the contact distance.
	contactBin := int((s.P.D / 2) / dz)
	if contactBin >= p.Bins/2 {
		contactBin = 0
	}
	res.ContactDensity = (res.Profile[contactBin] + res.Profile[p.Bins-1-contactBin]) / 2
	// Mid-plane density.
	res.MidDensity = (res.Profile[p.Bins/2] + res.Profile[(p.Bins-1)/2]) / 2
	// Peak density.
	for _, v := range res.Profile {
		if v > res.PeakDensity {
			res.PeakDensity = v
		}
	}
	return res
}

// Oracle adapts the MD simulation to the core.Oracle interface: inputs are
// the paper's five features (h, z+, z−, c, d) and outputs the three
// density observables (contact, mid, peak). Every Run executes a full
// simulation — this is the expensive ground truth the MLaroundHPC wrapper
// learns to bypass (experiment E2).
type Oracle struct {
	Cfg Config
	RC  RunConfig
	// seedCounter differentiates repeated runs at identical parameters;
	// atomic because wrappers fan oracle runs out over workers.
	seedCounter atomic.Uint64
}

// NewOracle builds an MD oracle with the given numerical setup.
func NewOracle(cfg Config, rc RunConfig) *Oracle {
	return &Oracle{Cfg: cfg, RC: rc}
}

// Dims implements core.Oracle: 5 inputs → 3 outputs.
func (o *Oracle) Dims() (int, int) { return 5, 3 }

// Run implements core.Oracle.
func (o *Oracle) Run(x []float64) ([]float64, error) {
	if len(x) != 5 {
		return nil, fmt.Errorf("md: oracle expects 5 features, got %d", len(x))
	}
	p := Params{H: x[0], Zp: int(x[1] + 0.5), Zn: int(x[2] + 0.5), C: x[3], D: x[4]}
	cfg := o.Cfg
	cfg.Seed = o.Cfg.Seed + o.seedCounter.Add(1)*0x9e3779b9
	sys, err := NewSystem(p, cfg)
	if err != nil {
		return nil, err
	}
	res, err := sys.Run(context.Background(), o.RC)
	if err != nil {
		return nil, err
	}
	return []float64{res.ContactDensity, res.MidDensity, res.PeakDensity}, nil
}

var _ core.Oracle = (*Oracle)(nil)

// FeatureNames are the paper's five input features in order.
func FeatureNames() []string { return []string{"h", "zp", "zn", "c", "d"} }

// TargetNames are the three predicted density observables in order.
func TargetNames() []string { return []string{"contact", "mid", "peak"} }
