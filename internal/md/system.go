// Package md implements the nanoscale molecular-dynamics substrate of the
// paper's flagship MLaroundHPC exemplar (§II-C1, §III-D): ions confined
// between two planar surfaces nanometers apart. The five control
// parameters match the paper's D=5 feature set — confinement length h,
// positive valency z+, negative valency z−, salt concentration c and ion
// diameter d — and the observables are the contact, mid-plane (center) and
// peak densities of the ionic profile.
//
// The simulation is self-contained: Langevin dynamics with velocity-Verlet
// integration, WCA excluded volume, screened-Coulomb (Yukawa)
// electrostatics, purely repulsive 12-6 walls, and a cell-list force loop
// that evaluates each pair once and, with several workers, accumulates
// into per-worker force buffers summed in a fixed order. Reduced units
// are used throughout: the unit length is the reference ion diameter, the
// unit energy is kT, and the unit mass is the ion mass.
package md

import (
	"fmt"
	"math"

	"repro/internal/xrand"
)

// Params are the physical control parameters of one confined-electrolyte
// simulation — exactly the paper's five surrogate input features.
type Params struct {
	// H is the confinement length (wall separation) in reduced units.
	H float64
	// Zp and Zn are the positive and negative ion valencies.
	Zp, Zn int
	// C is the reduced salt concentration (ion-pair number density).
	C float64
	// D is the ion diameter in reduced units.
	D float64
}

// Validate checks the parameters against the supported ranges.
func (p Params) Validate() error {
	switch {
	case p.H < 2 || p.H > 100:
		return fmt.Errorf("md: confinement length %g outside [2,100]", p.H)
	case p.Zp < 1 || p.Zp > 3 || p.Zn < 1 || p.Zn > 3:
		return fmt.Errorf("md: valencies (%d,%d) outside [1,3]", p.Zp, p.Zn)
	case p.C <= 0 || p.C > 0.5:
		return fmt.Errorf("md: concentration %g outside (0,0.5]", p.C)
	case p.D < 0.5 || p.D > 2:
		return fmt.Errorf("md: ion diameter %g outside [0.5,2]", p.D)
	}
	return nil
}

// Species tags a particle type.
type Species int

// Particle species.
const (
	Cation Species = iota
	Anion
	Solvent
)

// String returns the species name.
func (s Species) String() string {
	switch s {
	case Cation:
		return "cation"
	case Anion:
		return "anion"
	default:
		return "solvent"
	}
}

// Config controls the numerical setup of a simulation.
type Config struct {
	// L is the lateral box edge (x and y, periodic).
	L float64
	// Dt is the integration timestep.
	Dt float64
	// Gamma is the Langevin friction coefficient.
	Gamma float64
	// Bjerrum is the Bjerrum length setting electrostatic strength.
	Bjerrum float64
	// Cutoff is the pair-interaction cutoff radius.
	Cutoff float64
	// SolventFrac adds neutral solvent particles as this fraction of the
	// total particle count (0 disables; used by the solvent-surrogate
	// experiment E8).
	SolventFrac float64
	// Workers bounds force-loop parallelism (0 = GOMAXPROCS).
	Workers int
	// Seed drives all stochastic elements.
	Seed uint64
}

// DefaultConfig returns a numerically safe configuration.
func DefaultConfig() Config {
	return Config{
		L: 10, Dt: 0.005, Gamma: 1.0, Bjerrum: 2.0, Cutoff: 3.5,
		SolventFrac: 0, Workers: 0, Seed: 1,
	}
}

// System is the state of one confined-electrolyte simulation.
type System struct {
	P   Params
	Cfg Config

	N       int       // total particles
	Pos     []float64 // 3N packed x,y,z
	Vel     []float64
	Force   []float64
	Charge  []float64
	Kind    []Species
	Kappa   float64 // inverse screening length
	rng     *xrand.Rand
	cells   *cellList
	kernel  PairKernel // solvent-solvent kernel (exact or surrogate)
	stepNum int
	// workerForce holds the force buffers of workers 1.. of the parallel
	// force loop (worker 0 uses Force), 3N values each.
	workerForce []float64
}

// NewSystem builds an electroneutral system of ions (plus optional neutral
// solvent) placed on a jittered lattice inside the slit.
func NewSystem(p Params, cfg Config) (*System, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if cfg.L <= 0 || cfg.Dt <= 0 || cfg.Cutoff <= 0 {
		return nil, fmt.Errorf("md: invalid config %+v", cfg)
	}
	// Electroneutrality: nPlus*Zp == nMinus*Zn. Choose k "formula units".
	volume := cfg.L * cfg.L * p.H
	k := int(math.Max(1, math.Round(p.C*volume/float64(p.Zp+p.Zn))))
	nPlus := k * p.Zn
	nMinus := k * p.Zp
	nIons := nPlus + nMinus
	nSolvent := 0
	if cfg.SolventFrac > 0 {
		if cfg.SolventFrac >= 1 {
			return nil, fmt.Errorf("md: solvent fraction %g must be < 1", cfg.SolventFrac)
		}
		nSolvent = int(float64(nIons) * cfg.SolventFrac / (1 - cfg.SolventFrac))
	}
	n := nIons + nSolvent

	s := &System{
		P: p, Cfg: cfg, N: n,
		Pos:    make([]float64, 3*n),
		Vel:    make([]float64, 3*n),
		Force:  make([]float64, 3*n),
		Charge: make([]float64, n),
		Kind:   make([]Species, n),
		rng:    xrand.New(cfg.Seed),
		kernel: ExactSolventKernel{},
	}
	for i := 0; i < nPlus; i++ {
		s.Charge[i] = float64(p.Zp)
		s.Kind[i] = Cation
	}
	for i := nPlus; i < nIons; i++ {
		s.Charge[i] = -float64(p.Zn)
		s.Kind[i] = Anion
	}
	for i := nIons; i < n; i++ {
		s.Kind[i] = Solvent
	}
	// Debye screening from ionic strength: kappa^2 = 4*pi*lB*sum(ci*zi^2).
	ionDensity := float64(nIons) / volume
	sumZ2 := (float64(nPlus)*float64(p.Zp*p.Zp) + float64(nMinus)*float64(p.Zn*p.Zn)) / float64(nIons)
	s.Kappa = math.Sqrt(4 * math.Pi * cfg.Bjerrum * ionDensity * sumZ2)

	s.placeOnLattice()
	s.initVelocities()
	s.cells = newCellList(cfg.L, p.H, cfg.Cutoff)
	s.ComputeForces()
	return s, nil
}

// placeOnLattice arranges particles on a cubic lattice inside the slit with
// small random jitter, avoiding initial overlaps.
func (s *System) placeOnLattice() {
	// Lattice spacing from particle count.
	perSide := int(math.Ceil(math.Cbrt(float64(s.N))))
	dx := s.Cfg.L / float64(perSide)
	// Keep a wall offset of one radius so the wall potential is finite.
	zLo := -s.P.H/2 + s.P.D*0.6
	zHi := s.P.H/2 - s.P.D*0.6
	dz := (zHi - zLo) / float64(perSide)
	idx := 0
	for ix := 0; ix < perSide && idx < s.N; ix++ {
		for iy := 0; iy < perSide && idx < s.N; iy++ {
			for iz := 0; iz < perSide && idx < s.N; iz++ {
				jit := 0.05 * dx
				s.Pos[3*idx] = (float64(ix)+0.5)*dx + s.rng.Range(-jit, jit)
				s.Pos[3*idx+1] = (float64(iy)+0.5)*dx + s.rng.Range(-jit, jit)
				s.Pos[3*idx+2] = zLo + (float64(iz)+0.5)*dz + s.rng.Range(-jit, jit)
				idx++
			}
		}
	}
	// Shuffle positions across species so ions and solvent mix.
	perm := s.rng.Perm(s.N)
	pos := make([]float64, len(s.Pos))
	copy(pos, s.Pos)
	for i, p := range perm {
		s.Pos[3*i] = pos[3*p]
		s.Pos[3*i+1] = pos[3*p+1]
		s.Pos[3*i+2] = pos[3*p+2]
	}
}

// initVelocities draws Maxwell–Boltzmann velocities at kT=1 and removes
// the center-of-mass drift.
func (s *System) initVelocities() {
	var cm [3]float64
	for i := 0; i < s.N; i++ {
		for d := 0; d < 3; d++ {
			v := s.rng.NormFloat64()
			s.Vel[3*i+d] = v
			cm[d] += v
		}
	}
	for d := 0; d < 3; d++ {
		cm[d] /= float64(s.N)
	}
	for i := 0; i < s.N; i++ {
		for d := 0; d < 3; d++ {
			s.Vel[3*i+d] -= cm[d]
		}
	}
}

// SetSolventKernel swaps the solvent-solvent pair kernel (exact vs
// learned surrogate, experiment E8).
func (s *System) SetSolventKernel(k PairKernel) { s.kernel = k }

// KineticTemperature returns the instantaneous kinetic temperature
// 2*KE/(3N) in units of kT.
func (s *System) KineticTemperature() float64 {
	ke := 0.0
	for _, v := range s.Vel {
		ke += v * v
	}
	return ke / float64(3*s.N)
}

// minimumImage applies the periodic minimum-image convention laterally;
// z is not periodic (walls).
func (s *System) minimumImage(dx, dy float64) (float64, float64) {
	L := s.Cfg.L
	if dx > L/2 {
		dx -= L
	} else if dx < -L/2 {
		dx += L
	}
	if dy > L/2 {
		dy -= L
	} else if dy < -L/2 {
		dy += L
	}
	return dx, dy
}

// wrap applies lateral periodic wrapping to a coordinate in O(1) time
// (math.Mod rather than repeated shifts, so a blown-up coordinate cannot
// stall the step loop). Non-finite input maps to 0 — downstream
// diagnostics (kinetic temperature) expose the blowup.
//
// A coordinate within one box of [0, L), which is where a timestep
// leaves any particle that has not blown up, takes a fast path with
// bit-identical results: math.Mod is the identity on (-L, L), and x−L is
// exact on [L, 2L) by Sterbenz's lemma. x = -L is left to math.Mod,
// which gives -0 there.
func wrap(x, L float64) float64 {
	switch {
	case x >= 0 && x < L:
		return x
	case x >= L && x < 2*L:
		return x - L
	case x < 0 && x > -L:
		return x + L
	}
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	x = math.Mod(x, L)
	if x < 0 {
		x += L
	}
	return x
}
