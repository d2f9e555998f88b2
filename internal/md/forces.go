package md

import (
	"math"
	"runtime"
	"sync"
)

// PairKernel computes the scalar radial force magnitude divided by r
// (f(r)/r, so the Cartesian force is the return value times the separation
// vector) for a solvent-solvent pair at squared distance r2. Returning 0
// means no interaction. The exact kernel below is deliberately expensive —
// it stands in for the polarizable many-term force fields the paper notes
// cost 3-10x (§II-C2) — which is what makes the learned surrogate kernel
// of experiment E8 profitable.
type PairKernel interface {
	ForceOverR(r2 float64) float64
	Name() string
}

// ExactSolventKernel is the reference solvent-solvent interaction: a WCA
// core plus a short-range oscillatory tail evaluated with transcendental
// functions (the stand-in for expensive polarization terms).
type ExactSolventKernel struct{}

// Name implements PairKernel.
func (ExactSolventKernel) Name() string { return "exact" }

// ForceOverR implements PairKernel.
func (ExactSolventKernel) ForceOverR(r2 float64) float64 {
	const sigma2 = 1.0
	const cut2 = 6.25 // 2.5^2
	if r2 >= cut2 || r2 == 0 {
		return 0
	}
	// WCA-like repulsive core.
	inv2 := sigma2 / r2
	inv6 := inv2 * inv2 * inv2
	f := 24 * (2*inv6*inv6 - inv6) / r2
	if f < 0 {
		f = 0
	}
	// Expensive oscillatory "polarization" tail: several transcendental
	// evaluations per pair, as in multi-term classical polarizable FFs.
	r := math.Sqrt(r2)
	tail := 0.0
	for k := 1; k <= 4; k++ {
		fk := float64(k)
		tail += math.Exp(-fk*r/2) * math.Cos(fk*math.Pi*r) / fk
	}
	return f + 0.5*tail/r
}

// TabulatedKernel is a learned/tabulated radial kernel: the surrogate that
// replaces the exact solvent kernel in E8. Lookup is a linear
// interpolation into a precomputed table — orders of magnitude cheaper
// than the transcendental tail.
type TabulatedKernel struct {
	RMin, RMax float64
	Table      []float64 // f(r)/r at uniform r^2 spacing
	dr2        float64
}

// Name implements PairKernel.
func (t *TabulatedKernel) Name() string { return "surrogate" }

// NewTabulatedKernel samples src on a uniform r^2 grid of the given size.
// In the full experiment the table entries come from an NN fit of sampled
// (r, force) pairs; tabulation is the deployment form of that surrogate.
func NewTabulatedKernel(src PairKernel, rMin, rMax float64, size int) *TabulatedKernel {
	if size < 2 {
		panic("md: kernel table needs at least 2 entries")
	}
	t := &TabulatedKernel{RMin: rMin, RMax: rMax, Table: make([]float64, size)}
	lo, hi := rMin*rMin, rMax*rMax
	t.dr2 = (hi - lo) / float64(size-1)
	for i := range t.Table {
		r2 := lo + float64(i)*t.dr2
		t.Table[i] = src.ForceOverR(r2)
	}
	return t
}

// ForceOverR implements PairKernel.
func (t *TabulatedKernel) ForceOverR(r2 float64) float64 {
	lo := t.RMin * t.RMin
	hi := t.RMax * t.RMax
	if r2 >= hi || r2 == 0 {
		return 0
	}
	if r2 < lo {
		r2 = lo
	}
	pos := (r2 - lo) / t.dr2
	i := int(pos)
	if i >= len(t.Table)-1 {
		return t.Table[len(t.Table)-1]
	}
	frac := pos - float64(i)
	return t.Table[i]*(1-frac) + t.Table[i+1]*frac
}

// cellList is a 3D uniform-grid neighbor structure, periodic in x,y.
type cellList struct {
	nx, ny, nz int
	cx, cy, cz float64
	L, H       float64
	heads      []int
	next       []int
	cell       []int // cell index of each particle at the last build
}

func newCellList(L, H, cutoff float64) *cellList {
	nx := int(L / cutoff)
	if nx < 1 {
		nx = 1
	}
	nz := int(H / cutoff)
	if nz < 1 {
		nz = 1
	}
	return &cellList{
		nx: nx, ny: nx, nz: nz,
		cx: L / float64(nx), cy: L / float64(nx), cz: H / float64(nz),
		L: L, H: H,
	}
}

// build assigns particles to cells. Particles are pushed in ascending
// index order, so every cell's chain runs in descending index order.
func (c *cellList) build(pos []float64, n int) {
	total := c.nx * c.ny * c.nz
	if len(c.heads) != total {
		c.heads = make([]int, total)
	}
	if len(c.next) != n {
		c.next = make([]int, n)
		c.cell = make([]int, n)
	}
	for i := range c.heads {
		c.heads[i] = -1
	}
	for i := 0; i < n; i++ {
		idx := c.cellIndex(pos[3*i], pos[3*i+1], pos[3*i+2])
		c.cell[i] = idx
		c.next[i] = c.heads[idx]
		c.heads[idx] = i
	}
}

func (c *cellList) cellIndex(x, y, z float64) int {
	ix := int(wrap(x, c.L) / c.cx)
	iy := int(wrap(y, c.L) / c.cy)
	iz := int((z + c.H/2) / c.cz)
	if ix >= c.nx {
		ix = c.nx - 1
	}
	if iy >= c.ny {
		iy = c.ny - 1
	}
	if iz < 0 {
		iz = 0
	}
	if iz >= c.nz {
		iz = c.nz - 1
	}
	return (iz*c.ny+iy)*c.nx + ix
}

// periodicNeighbors returns the distinct wrapped cell indices {i-1, i, i+1}
// along a periodic axis of n cells, and how many of the three slots hold
// one. With fewer than 3 cells the ±1 neighbors wrap onto the same cell,
// so they are deduplicated and every pair is visited exactly once.
func periodicNeighbors(i, n int) (out [3]int, k int) {
	switch {
	case n >= 3:
		return [3]int{(i - 1 + n) % n, i, (i + 1) % n}, 3
	case n == 2:
		return [3]int{i, 1 - i}, 2
	default:
		return [3]int{0}, 1
	}
}

// wallCutFactor is 2^(1/6): the WCA cutoff of the 12-6 wall repulsion in
// units of its sigma.
var wallCutFactor = math.Pow(2, 1.0/6)

// ComputeForces fills s.Force with the total force on every particle:
// WCA + screened Coulomb for ion pairs, the active solvent kernel for
// solvent-solvent pairs, WCA for ion-solvent pairs, and the wall
// potential. Each unordered pair is evaluated once and applied to both
// particles (Newton's third law). With more than one worker, particles are
// dealt to workers by stride, each worker accumulates into a force buffer
// of its own, and the buffers are summed in worker order, so the result
// depends on the worker count only at rounding level.
func (s *System) ComputeForces() {
	s.cells.build(s.Pos, s.N)
	clear(s.Force)
	workers := s.Cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > s.N {
		workers = s.N
	}
	if workers <= 1 {
		s.pairForces(0, 1, s.Force)
	} else {
		s.parallelPairForces(workers)
	}
	// Walls at z = ±H/2: purely repulsive 12-6 on the wall distance.
	for i := 0; i < s.N; i++ {
		s.Force[3*i+2] += s.wallForce(s.Pos[3*i+2])
	}
}

// parallelPairForces runs pairForces on workers goroutines. Worker 0
// accumulates straight into s.Force, every other worker into its own 3N
// slice of s.workerForce, which is allocated once and reused by every
// later call. It lives apart from ComputeForces so the goroutine
// closure's captures do not escape on the serial path.
func (s *System) parallelPairForces(workers int) {
	n3 := 3 * s.N
	if need := (workers - 1) * n3; len(s.workerForce) < need {
		s.workerForce = make([]float64, need)
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := s.workerForce[(w-1)*n3 : w*n3]
			clear(buf)
			s.pairForces(w, workers, buf)
		}(w)
	}
	s.pairForces(0, workers, s.Force)
	wg.Wait()
	for w := 1; w < workers; w++ {
		for k, f := range s.workerForce[(w-1)*n3 : w*n3] {
			s.Force[k] += f
		}
	}
}

// pairForces adds into f the pair forces of every pair (i, j), j > i, for
// the particles i = first, first+stride, ... Each such pair is evaluated
// once and applied to both i and j.
func (s *System) pairForces(first, stride int, f []float64) {
	// Pair forces are capped at ±fCap (in f/r form): the standard guard
	// against integration catastrophe in stiff strongly-coupled systems
	// (LAMMPS-style soft capping). Overheating from an over-large dt then
	// shows up as a kinetic-temperature excursion — which is exactly the
	// observable the MLautotuning experiment (E3) learns — instead of a
	// numeric blowup.
	const fCap = 1e4
	c := s.cells
	cut2 := s.Cfg.Cutoff * s.Cfg.Cutoff
	d2 := s.P.D * s.P.D
	wcaCut := 1.2599210498948732 * d2 // 2^(1/3) * D^2
	lB := s.Cfg.Bjerrum
	kappa := s.Kappa
	pos := s.Pos
	for i := first; i < s.N; i += stride {
		xi, yi, zi := pos[3*i], pos[3*i+1], pos[3*i+2]
		qi := s.Charge[i]
		ki := s.Kind[i]
		var fx, fy, fz float64
		cell := c.cell[i]
		ix, iy, iz := cell%c.nx, (cell/c.nx)%c.ny, cell/(c.nx*c.ny)
		xs, nxs := periodicNeighbors(ix, c.nx)
		ys, nys := periodicNeighbors(iy, c.ny)
		for jz := max(iz-1, 0); jz <= min(iz+1, c.nz-1); jz++ {
			for _, jy := range ys[:nys] {
				row := (jz*c.ny + jy) * c.nx
				for _, jx := range xs[:nxs] {
					// Chains run in descending index order, so the
					// partners j > i are a prefix of each chain.
					for j := c.heads[row+jx]; j > i; j = c.next[j] {
						dx := xi - pos[3*j]
						dy := yi - pos[3*j+1]
						dz := zi - pos[3*j+2]
						dx, dy = s.minimumImage(dx, dy)
						r2 := dx*dx + dy*dy + dz*dz
						if r2 >= cut2 || r2 == 0 {
							continue
						}
						var fOverR float64
						if ki == Solvent && s.Kind[j] == Solvent {
							fOverR = s.kernel.ForceOverR(r2)
						} else {
							// WCA with ion diameter D: purely repulsive core.
							if r2 < wcaCut {
								inv2 := d2 / r2
								inv6 := inv2 * inv2 * inv2
								fOverR += 24 * (2*inv6*inv6 - inv6) / r2
							}
							// Screened Coulomb for charged pairs.
							qj := s.Charge[j]
							if qi != 0 && qj != 0 {
								r := math.Sqrt(r2)
								// U = lB*qi*qj*exp(-kappa r)/r
								// f/r = lB*qi*qj*exp(-kappa r)*(1+kappa r)/r^3
								fOverR += lB * qi * qj * math.Exp(-kappa*r) * (1 + kappa*r) / (r2 * r)
							}
						}
						if fOverR > fCap {
							fOverR = fCap
						} else if fOverR < -fCap {
							fOverR = -fCap
						}
						fx += fOverR * dx
						fy += fOverR * dy
						fz += fOverR * dz
						f[3*j] -= fOverR * dx
						f[3*j+1] -= fOverR * dy
						f[3*j+2] -= fOverR * dz
					}
				}
			}
		}
		f[3*i] += fx
		f[3*i+1] += fy
		f[3*i+2] += fz
	}
}

// wallForce returns the z-force from both walls on a particle at height z.
// Each wall exerts a WCA-style repulsion on the normal distance, with the
// contact offset of half an ion diameter.
func (s *System) wallForce(z float64) float64 {
	sigma := s.P.D / 2
	wcaCut := sigma * wallCutFactor
	f := 0.0
	// Lower wall at -H/2.
	if dzLo := z + s.P.H/2; dzLo < wcaCut {
		f += wallRepulsion(dzLo, sigma)
	}
	// Upper wall at +H/2.
	if dzHi := s.P.H/2 - z; dzHi < wcaCut {
		f -= wallRepulsion(dzHi, sigma)
	}
	return f
}

// wallRepulsion is the magnitude of the repulsive 12-6 force at normal
// distance dz (pushes away from the wall). Clamped at small distances for
// numerical safety.
func wallRepulsion(dz, sigma float64) float64 {
	const minDz = 1e-3
	if dz < minDz {
		dz = minDz
	}
	inv := sigma / dz
	inv2 := inv * inv
	inv6 := inv2 * inv2 * inv2
	f := 24 * (2*inv6*inv6 - inv6) / dz
	if f < 0 {
		return 0
	}
	const maxF = 1e4
	if f > maxF {
		return maxF
	}
	return f
}

// PotentialEnergy computes the total pair + wall potential energy by brute
// force; used in tests and diagnostics, not in the integration hot path.
func (s *System) PotentialEnergy() float64 {
	cut2 := s.Cfg.Cutoff * s.Cfg.Cutoff
	d2 := s.P.D * s.P.D
	u := 0.0
	for i := 0; i < s.N; i++ {
		for j := i + 1; j < s.N; j++ {
			dx := s.Pos[3*i] - s.Pos[3*j]
			dy := s.Pos[3*i+1] - s.Pos[3*j+1]
			dz := s.Pos[3*i+2] - s.Pos[3*j+2]
			dx, dy = s.minimumImage(dx, dy)
			r2 := dx*dx + dy*dy + dz*dz
			if r2 >= cut2 || r2 == 0 {
				continue
			}
			if s.Kind[i] == Solvent && s.Kind[j] == Solvent {
				continue // kernel energy not tracked
			}
			wcaCut := 1.2599210498948732 * d2
			if r2 < wcaCut {
				inv2 := d2 / r2
				inv6 := inv2 * inv2 * inv2
				u += 4*(inv6*inv6-inv6) + 1
			}
			if s.Charge[i] != 0 && s.Charge[j] != 0 {
				r := math.Sqrt(r2)
				u += s.Cfg.Bjerrum * s.Charge[i] * s.Charge[j] * math.Exp(-s.Kappa*r) / r
			}
		}
	}
	return u
}
