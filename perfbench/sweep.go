package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/md"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// The sweep workload is the paper's MLaroundHPC campaign in-process: one
// closed-loop caller asks a UQ-gated sharded surrogate for the nanoconfinement
// observables of batches of state points whose confinement length walks
// upward, so every batch reaches territory the surrogates have not seen.
// Each batch waits for the refits it triggered (ShardedWrapper.Wait), so
// training is charged to the campaign as in §III-D and the surrogate/oracle
// mix depends on the seed, not on timing.
const (
	sweepBatch    = 64
	sweepBatches  = 32
	sweepPretrain = 96
	// sweepGate is the UQ threshold (max predictive std, target units):
	// set so the mix is neither all-surrogate nor all-oracle.
	sweepGate = 0.013
	// sweepPretrainH is the top of the h range the pretraining design
	// covers; the batches then tile the whole h range in order, each in
	// an h window of its own.
	sweepPretrainH = 4.5
	// sweepMinCampaigns keeps enough repeats for the medians even when one
	// campaign outlasts --seconds.
	sweepMinCampaigns = 3
)

// The feature box (h, z+, z−, c, d) of the experimental ranges the
// nanoconfinement example uses.
var (
	mdLo = [5]float64{4, 1, 1, 0.02, 0.8}
	mdHi = [5]float64{10, 3, 3, 0.12, 1.2}
)

func sweepMDConfig() md.Config {
	cfg := md.DefaultConfig()
	cfg.L = 8
	return cfg
}

// sweepRun sizes one oracle run at a few milliseconds.
var sweepRun = md.RunConfig{EquilSteps: 60, SampleSteps: 220, SampleEvery: 5, Bins: 16}

func sweepConfig() core.ShardedConfig {
	return core.ShardedConfig{
		Router:          core.KDRouter{Dim: 0, Cuts: []float64{5.5, 7, 8.5}},
		MinTrainSamples: 40,
		RetrainEvery:    48,
		UQThreshold:     sweepGate,
		Retention:       core.Retention{Policy: core.RetainWindow, MaxSamples: 512},
	}
}

// mdFactory returns surrogates that all start from the same seed, so a
// refit's model does not depend on the order concurrent refits call the
// factory in.
func mdFactory(seed uint64, epochs int) core.SurrogateFactory {
	return func() core.Surrogate {
		s := core.NewNNSurrogate(5, 3, []int{24, 24}, 0.1, xrand.New(seed))
		s.Epochs = epochs
		s.MCPasses = 10
		return s
	}
}

// mdPoint fills x with a state point: h uniform in [hLo, hHi], integer
// valencies, and c, d uniform over the box. u supplies uniform draws.
func mdPoint(x []float64, hLo, hHi float64, u func() float64) {
	x[0] = hLo + (hHi-hLo)*u()
	x[1] = math.Floor(1 + 3*u())
	x[2] = math.Floor(1 + 3*u())
	x[3] = mdLo[3] + (mdHi[3]-mdLo[3])*u()
	x[4] = mdLo[4] + (mdHi[4]-mdLo[4])*u()
}

// mdDesign fills xs with a Latin hypercube over the box with h in
// [hLo, hHi]: every continuous feature is stratified into xs.Rows bins hit
// once each, and the nine valency pairs are dealt out evenly. Stratifying
// keeps batches of different seeds alike in content, so the run-to-run
// spread of a campaign is not dominated by which points a seed drew.
func mdDesign(xs *tensor.Matrix, hLo, hHi float64, u func() float64) {
	n := xs.Rows
	lo := [5]float64{hLo, 0, 0, mdLo[3], mdLo[4]}
	hi := [5]float64{hHi, 0, 0, mdHi[3], mdHi[4]}
	perm := make([]int, n)
	for _, j := range []int{0, 1, 3, 4} {
		for i := range perm {
			perm[i] = i
		}
		for i := n - 1; i > 0; i-- {
			k := int(u() * float64(i+1))
			perm[i], perm[k] = perm[k], perm[i]
		}
		for i := 0; i < n; i++ {
			if j == 1 {
				pair := perm[i] % 9
				xs.Set(i, 1, float64(1+pair/3))
				xs.Set(i, 2, float64(1+pair%3))
				continue
			}
			xs.Set(i, j, lo[j]+(hi[j]-lo[j])*(float64(perm[i])+u())/float64(n))
		}
	}
}

// programSeed seeds what belongs to the program rather than to its
// inputs — surrogate initialisation and simulation noise — so the
// workload seed changes only the generated inputs.
const programSeed = 0x5eed

// sweepInputs derives the pretraining design (the bottom h window) and
// the campaign batches from the seed.
type sweepInputs struct {
	design  *tensor.Matrix
	batches []*tensor.Matrix
}

func makeSweepInputs(seed uint64) sweepInputs {
	ctr := splitmix64(seed ^ 0x5eed5)
	u := func() float64 { ctr++; return unitFloat(splitmix64(ctr)) }
	in := sweepInputs{design: tensor.NewMatrix(sweepPretrain, 5)}
	mdDesign(in.design, mdLo[0], sweepPretrainH, u)
	step := (mdHi[0] - mdLo[0]) / sweepBatches
	for b := 0; b < sweepBatches; b++ {
		xs := tensor.NewMatrix(sweepBatch, 5)
		lo := mdLo[0] + step*float64(b)
		mdDesign(xs, lo, lo+step, u)
		in.batches = append(in.batches, xs)
	}
	return in
}

// campaign is one complete sweep: pretrain, then every batch.
type campaign struct {
	in          sweepInputs
	setup, walk time.Duration
	stepNs      []float64 // per batch: QueryBatch through Wait
	results     [][]core.BatchResult
	surrogate   int // rows answered by a surrogate
	oracle      int // rows answered by the simulation
	errs        int // rows answered with an error
	nonfinite   int // answers holding NaN or Inf
	refitErrs   int
	ledger      core.Ledger
	staleness   int
}

// runCampaign runs one campaign; with tr set it records a sweep.step span
// per batch with core.batch, core.wait and md.run spans beneath it.
func runCampaign(in sweepInputs, tr *tracer) (*campaign, error) {
	oracle := newMDOracle(sweepMDConfig(), sweepRun, programSeed)
	var cur atomic.Int32 // the batch span the oracle's runs belong to
	cur.Store(-1)
	if tr != nil {
		oracle.tr = tr
		oracle.parentOf = func([]float64) int32 { return cur.Load() }
	}
	c := &campaign{in: in}
	t0 := time.Now()
	w := core.NewShardedWrapper(oracle, mdFactory(programSeed, 60), sweepConfig())
	if err := w.Pretrain(in.design); err != nil {
		return nil, fmt.Errorf("pretrain: %w", err)
	}
	c.setup = time.Since(t0)
	walk0 := time.Now()
	for _, xs := range in.batches {
		s0 := time.Now()
		step, bid := int32(-1), int32(-1)
		if tr != nil {
			step = tr.begin(spanStep, -1)
			bid = tr.begin(spanBatch, step)
			cur.Store(bid)
		}
		res, err := w.QueryBatch(xs)
		if tr != nil {
			tr.end(bid)
			cur.Store(-1)
		}
		if err != nil {
			return nil, err
		}
		wid := int32(-1)
		if tr != nil {
			wid = tr.begin(spanWait, step)
		}
		if err := w.Wait(); err != nil {
			c.refitErrs++
		}
		if tr != nil {
			tr.end(wid)
			tr.end(step)
		}
		c.stepNs = append(c.stepNs, float64(time.Since(s0)))
		for _, r := range res {
			switch {
			case r.Err != nil:
				c.errs++
				continue
			case r.Src == core.FromSurrogate:
				c.surrogate++
			default:
				c.oracle++
			}
			if !allFinite(r.Y) {
				c.nonfinite++
			}
		}
		c.results = append(c.results, res)
	}
	c.walk = time.Since(walk0)
	c.ledger = w.Ledger()
	for _, st := range w.Status() {
		c.staleness += st.Stale
	}
	return c, nil
}

func allFinite(xs []float64) bool {
	for _, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// runCampaigns runs campaigns until opt.seconds have passed (at least
// sweepMinCampaigns). Campaign k draws its points from the k-th seed
// derived from the workload seed, so a run averages over several
// campaigns and its figures depend less on any one draw.
func runCampaigns(opt options, tr *tracer) ([]*campaign, error) {
	var cs []*campaign
	t0 := time.Now()
	for len(cs) < sweepMinCampaigns || time.Since(t0).Seconds() < opt.seconds {
		c, err := runCampaign(campaignInputs(opt.seed, len(cs)), tr)
		if err != nil {
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

// campaignInputs derives campaign k's inputs from the workload seed.
func campaignInputs(seed uint64, k int) sweepInputs {
	return makeSweepInputs(splitmix64(seed) + uint64(k))
}

func runSweep(opt options, r *report) error {
	r.inputs["sweep.batch"] = sweepBatch
	r.inputs["sweep.batches"] = sweepBatches
	r.inputs["sweep.pretrain_points"] = sweepPretrain
	r.inputs["sweep.uq_gate"] = sweepGate
	r.inputs["sweep.md_run"] = fmt.Sprintf("L=%g equil=%d sample=%d every=%d workers=1", sweepMDConfig().L, sweepRun.EquilSteps, sweepRun.SampleSteps, sweepRun.SampleEvery)
	r.inputs["sweep.oracle_workers"] = "GOMAXPROCS"

	var ref *campaign
	var tr *tracer
	if opt.trace {
		// The untraced reference campaign the traced ones are compared
		// against for trace.overhead_frac.
		var err error
		if ref, err = runCampaign(campaignInputs(opt.seed, 0), nil); err != nil {
			return err
		}
		tr = newTracer(1 << 16)
	}
	cs, err := runCampaigns(opt, tr)
	if err != nil {
		return err
	}

	var setups, walks, steps []float64
	var sur, orc, errs, nonfinite, refitErrs int
	for _, c := range cs {
		setups = append(setups, c.setup.Seconds())
		walks = append(walks, c.walk.Seconds())
		steps = append(steps, c.stepNs...)
		sur += c.surrogate
		orc += c.oracle
		errs += c.errs
		nonfinite += c.nonfinite
		refitErrs += c.refitErrs
	}
	attempted := int64(len(cs) * sweepBatches * sweepBatch)
	r.attempted, r.failed = attempted, int64(errs)
	if nonfinite > 0 {
		r.fail("%d answers hold NaN or Inf", nonfinite)
	}
	if served := int64(sur + orc + errs); served != attempted {
		r.fail("%d of %d points answered (silent drop)", served, attempted)
	}
	if refitErrs > 0 {
		r.fail("%d refits failed", refitErrs)
	}
	rmse, n, err := sweepAnswerRMSE(cs, r)
	if err != nil {
		return err
	}
	if rmse > answerTolerance {
		r.fail("answer_rmse %.3f exceeds tolerance %.2f", rmse, answerTolerance)
	}

	if !opt.trace {
		r.set("setup_s", median(setups), "s", len(setups))
		r.set("throughput_qps", float64(len(cs)*sweepBatches*sweepBatch)/sum(walks), "1/s", len(walks))
		r.set("latency_us", sum(walks)*1e6/float64(len(steps)), "us", len(steps))
		r.setExtra("p50_us", quantile(steps, 0.5)/1e3, "us", len(steps))
		r.setExtra("p90_us", quantile(steps, 0.9)/1e3, "us", len(steps))
		r.setExtra("p99_us", quantile(steps, 0.99)/1e3, "us", len(steps))
		r.set("surrogate_frac", float64(sur)/float64(sur+orc), "frac", sur+orc)
		r.set("answer_rmse", rmse, "nrmse", n)
		r.set("served_frac", 1-float64(errs)/float64(attempted), "frac", int(attempted))
		return nil
	}
	sweepLayers(r, cs, tr)
	r.set("trace.overhead_frac", cs[0].walk.Seconds()/ref.walk.Seconds()-1, "frac", 1)
	path, err := writeSpans(opt, tr, nil)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	r.inputs["trace.file"] = path
	return nil
}

// sweepLayers fills the per-layer metrics of a traced sweep from the spans
// and the wrappers' ledgers (per campaign where a count is reported, so the
// figures do not depend on how many campaigns fit in the run).
func sweepLayers(r *report, cs []*campaign, tr *tracer) {
	spans := tr.recorded()
	cover := mdCover(spans)
	var coreSelf, mdSelf, waitSelf float64
	var nSteps int
	for i, s := range spans {
		d := float64(s.end - s.start)
		switch s.kind {
		case spanBatch:
			c := float64(cover[int32(i)])
			coreSelf += d - c
			mdSelf += c
		case spanWait:
			waitSelf += d
		case spanStep:
			nSteps++
		}
	}
	var ledgers []core.Ledger
	var stale []float64
	for _, c := range cs {
		ledgers = append(ledgers, c.ledger)
		stale = append(stale, float64(c.staleness))
	}
	nc := float64(len(cs))
	spanLayers(r, spans, cover, nc)
	ledgerLayers(r, ledgers, nc)
	r.set("core.staleness_end", median(stale), "count", len(stale))
	ns := math.Max(1, float64(nSteps))
	r.set("self_us.core", coreSelf/1e3/ns, "us", nSteps)
	r.set("self_us.md", mdSelf/1e3/ns, "us", nSteps)
	r.set("self_us.wait", waitSelf/1e3/ns, "us", nSteps)
	r.set("trace.spans", float64(len(spans)), "count", 1)
	r.set("trace.dropped", float64(tr.dropped.Load()), "count", 1)
}

// answerTolerance is the largest accepted answer_rmse: 1.0 is what
// answering every point with the oracle's mean would score.
const answerTolerance = 1.0

// sweepAnswerStride picks the answers checked against the oracle: every
// sweepAnswerStride-th point of every campaign.
const sweepAnswerStride = 21

// sweepAnswerRMSE re-runs the oracle on a sample of every campaign's
// points, checks that oracle-served answers reproduce exactly, and
// returns the normalised RMSE of all sampled answers.
func sweepAnswerRMSE(cs []*campaign, r *report) (float64, int, error) {
	var xs, got [][]float64
	var fromOracle []bool
	for _, c := range cs {
		for k := 0; k < sweepBatches*sweepBatch; k += sweepAnswerStride {
			b, i := k/sweepBatch, k%sweepBatch
			res := c.results[b][i]
			if res.Err != nil {
				continue
			}
			xs = append(xs, c.in.batches[b].Row(i))
			got = append(got, res.Y)
			fromOracle = append(fromOracle, res.Src != core.FromSurrogate)
		}
	}
	want, err := runOracleRows(newMDOracle(sweepMDConfig(), sweepRun, programSeed), xs)
	if err != nil {
		return 0, 0, err
	}
	for i := range xs {
		if fromOracle[i] && !equalRows(got[i], want[i]) {
			r.fail("oracle-served answer for row %v is %v, the oracle gives %v", xs[i], got[i], want[i])
			break
		}
	}
	return nrmse(got, want), len(xs), nil
}

// runOracleRows runs the oracle on every row over GOMAXPROCS goroutines.
func runOracleRows(o core.Oracle, xs [][]float64) ([][]float64, error) {
	out := make([][]float64, len(xs))
	errs := make([]error, len(xs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(xs) {
					return
				}
				out[i], errs[i] = o.Run(xs[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference oracle run: %w", err)
		}
	}
	return out, nil
}

func equalRows(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// nrmse is the RMSE of got against want per output, divided by the
// spread (standard deviation) of want, averaged over outputs.
func nrmse(got, want [][]float64) float64 {
	if len(want) == 0 {
		return math.NaN()
	}
	out := len(want[0])
	total := 0.0
	for j := 0; j < out; j++ {
		var mu, se float64
		for i := range want {
			mu += want[i][j]
			d := got[i][j] - want[i][j]
			se += d * d
		}
		mu /= float64(len(want))
		var v float64
		for i := range want {
			d := want[i][j] - mu
			v += d * d
		}
		sd := math.Sqrt(v / float64(len(want)))
		if sd == 0 {
			sd = 1
		}
		total += math.Sqrt(se/float64(len(want))) / sd
	}
	return total / float64(out)
}
