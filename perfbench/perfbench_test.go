package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// TestTracedBackendForwards checks that the timing wrapper the traced
// serving runs put between the coalescer and the wrapper keeps the faces
// the fleet probes for, so fleet stats and brownout see the same backend
// with tracing on as with it off.
func TestTracedBackendForwards(t *testing.T) {
	cfg := hotConfig()
	cfg.Quantized = true
	w := core.NewShardedWrapper(hotOracle(0), hotFactory(programSeed), cfg)
	design := tensor.NewMatrix(80, 2)
	rng := xrand.New(3)
	for i := 0; i < design.Rows; i++ {
		design.Set(i, 0, rng.Range(-2, 2))
		design.Set(i, 1, rng.Range(-1, 1))
	}
	if err := w.Pretrain(design); err != nil {
		t.Fatal(err)
	}
	tb := &tracedBackend{w: w, tr: newTracer(64)}

	var d interface {
		SetBrownoutLevel(int)
		BrownoutLevel() int
	} = tb
	d.SetBrownoutLevel(core.BrownoutReducedMC)
	if w.BrownoutLevel() != core.BrownoutReducedMC || d.BrownoutLevel() != core.BrownoutReducedMC {
		t.Fatalf("brownout level not forwarded: wrapper %d, backend %d", w.BrownoutLevel(), d.BrownoutLevel())
	}
	d.SetBrownoutLevel(core.BrownoutOff)

	fl := fleet.New(fleet.Config{})
	defer fl.Close()
	if err := fl.Register("t", tb); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := fl.Query("t", []float64{0.1 * float64(i%10), -0.3}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := fl.TenantStats("t")
	if err != nil {
		t.Fatal(err)
	}
	stale := 0
	for _, s := range w.Status() {
		stale += s.Stale
	}
	if st.Staleness != stale {
		t.Errorf("fleet staleness %d, wrapper reports %d (Status not forwarded)", st.Staleness, stale)
	}
	q, fb := w.QuantStats()
	if q == 0 || st.QuantQueries != q || st.QuantFallbacks != fb {
		t.Errorf("fleet quant stats %d/%d, wrapper %d/%d (QuantStats not forwarded)", st.QuantQueries, st.QuantFallbacks, q, fb)
	}
	if n := tb.tr.n.Load(); n == 0 {
		t.Error("no core.batch span recorded")
	}
}

// TestTracedSweepMatchesUntraced checks that tracing does not change what
// a sweep does: the same seed gives the same surrogate/oracle mix and the
// same number of oracle runs with the spans recorded as without.
//
// The surrogates draw MC-dropout masks from rng streams seeded when a
// pooled per-processor context is created, so which contexts a run gets
// (and so a few gate decisions near the threshold) depends on scheduling
// and on garbage collection emptying the pools. The comparison runs on
// one processor with the collector off, where the pools behave the same
// in both runs; the race detector drops pooled items at random, so it
// is skipped there.
func TestTracedSweepMatchesUntraced(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	in := campaignInputs(7, 0)
	in.batches = in.batches[:6] // a short campaign keeps the test quick
	plain, err := runCampaign(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(1 << 12)
	traced, err := runCampaign(in, tr)
	if err != nil {
		t.Fatal(err)
	}
	if plain.surrogate != traced.surrogate || plain.oracle != traced.oracle {
		t.Fatalf("untraced: %d surrogate / %d oracle answers; traced: %d / %d",
			plain.surrogate, plain.oracle, traced.surrogate, traced.oracle)
	}
	runs := 0
	for _, s := range tr.recorded() {
		if s.kind == spanOracle && s.parent >= 0 {
			runs++
		}
	}
	if runs != plain.ledger.NTrain-sweepPretrain {
		t.Fatalf("traced run recorded %d md.run spans, the untraced ledger counts %d walk runs",
			runs, plain.ledger.NTrain-sweepPretrain)
	}
	if plain.oracle == 0 || plain.surrogate == 0 {
		t.Fatalf("campaign is not mixed: %d surrogate, %d oracle answers", plain.surrogate, plain.oracle)
	}
}

// TestMDOracleRepeatable checks the oracle adapter is safe under the
// wrapper's concurrent fan-out and answers a row the same every time.
func TestMDOracleRepeatable(t *testing.T) {
	o := newMDOracle(learnMDConfig(), learnRun, programSeed)
	xs := tensor.NewMatrix(16, 5)
	mdDesign(xs, 4, 10, func() float64 { return 0.5 })
	want, err := runOracleRows(o, rowsOf(xs))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4*xs.Rows)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < xs.Rows; i++ {
				y, err := o.Run(xs.Row(i))
				if err != nil || !equalRows(y, want[i]) {
					errs <- "row answered differently under concurrency"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func rowsOf(m *tensor.Matrix) [][]float64 {
	out := make([][]float64, m.Rows)
	for i := range out {
		out[i] = m.Row(i)
	}
	return out
}

// TestWindowedIgnoresOneStall checks the serving percentiles: one stalled
// window moves that window's tail, not the median over windows.
func TestWindowedIgnoresOneStall(t *testing.T) {
	p := newPhase(1000, 5, 1, false, nil) // 5 windows of 1000 slots at 1 ms
	for i := 0; i < p.n; i++ {
		due := int64(float64(i) * p.interval)
		lat := int64(100 * time.Microsecond)
		if i >= 2000 && i < 2100 { // a 100 ms stall in the third window
			lat = int64(50 * time.Millisecond)
		}
		p.status[i] = slotOK
		p.sendNs[i] = due
		p.doneNs[i] = due + lat
	}
	st := p.stats(20*time.Millisecond, time.Second)
	if got := st.windowed(0.99); math.Abs(got-1e5) > 1 {
		t.Fatalf("windowed p99 = %v ns, want 100µs", got)
	}
	if whole := quantile(st.lat, 0.99); whole < 1e7 {
		t.Fatalf("whole-phase p99 = %v ns, the stall should dominate it", whole)
	}
	if m := median(st.winMiss); m != 0 {
		t.Fatalf("median window miss share = %v, want 0", m)
	}
}

// TestRowTag checks the request tag survives a round trip and perturbs
// the feature by less than 2^-24 of its value.
func TestRowTag(t *testing.T) {
	for _, x := range []float64{4.25, -1.999, 9.99, 0.37} {
		for _, slot := range []int{0, 1, 12345, 1<<tagBits - 1} {
			y := tagRow(x, slot)
			if rowTag(y) != slot {
				t.Fatalf("tag of %v: got %d, want %d", x, rowTag(y), slot)
			}
			if math.Abs(y-x) > math.Abs(x)*math.Ldexp(1, -24) {
				t.Fatalf("tagging %v gave %v", x, y)
			}
		}
	}
}

// TestNRMSE pins the answer-check scale: exact answers score 0 and
// answering with the oracle's mean scores 1.
func TestNRMSE(t *testing.T) {
	want := [][]float64{{1, 10}, {2, 20}, {3, 30}, {4, 40}}
	if got := nrmse(want, want); got != 0 {
		t.Fatalf("nrmse of exact answers = %v", got)
	}
	mean := [][]float64{{2.5, 25}, {2.5, 25}, {2.5, 25}, {2.5, 25}}
	if got := nrmse(mean, want); math.Abs(got-1) > 1e-12 {
		t.Fatalf("nrmse of the mean = %v, want 1", got)
	}
}
