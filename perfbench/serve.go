package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/md"
	"repro/internal/registry"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// Serving workloads. Both drive the stack in stack.go with an open loop:
// requests are due on a fixed schedule whatever the server does, and each
// latency is timed from when its request was due.
const (
	rateLow  = 5000
	rateMid  = 30000
	rateHigh = 60000
	// latencyLimit is the p99 bound of the capacity search: about one MD
	// run at the sweep size, so a surrogate answer over the wire stays
	// cheaper than simulating.
	latencyLimit = 20 * time.Millisecond
	// capacityStep is the length of one capacity-search probe, judged in
	// probeWindow windows; fixed-rate phases are summarised in
	// phaseWindow windows.
	capacityStep = time.Second
	probeWindow  = 250 * time.Millisecond
	phaseWindow  = 100 * time.Millisecond
)

// hotTenants are the serve-hot tenants: small 2→1 nets whose gate always
// passes, so no request reaches an oracle and nothing refits.
const (
	hotTenants = 4
	hotGate    = 10
)

func hotConfig() core.ShardedConfig {
	return core.ShardedConfig{Shards: 2, MinTrainSamples: 20, UQThreshold: hotGate}
}

func hotFactory(seed uint64) core.SurrogateFactory {
	return func() core.Surrogate {
		s := core.NewNNSurrogate(2, 1, []int{24}, 0.1, xrand.New(seed))
		s.Epochs = 100
		s.MCPasses = 10
		return s
	}
}

func hotOracle(i int) smoothOracle { return smoothOracle{phase: 0.7 * float64(i)} }

// learnTenants are the serve-learn tenants: md-shaped 5→3 surrogates warm
// from a generation trained on the lower half of the h range while
// queries cover all of it, so UQ rejections fall back to a small MD run
// and background refits publish new generations while serving.
const (
	learnTenants  = 2
	learnGate     = 0.015
	learnPretrain = 256
	learnRate     = rateLow
	learnEvery    = 500
	learnEpochs   = 20
)

var learnRun = md.RunConfig{EquilSteps: 4, SampleSteps: 12, SampleEvery: 2, Bins: 8}

func learnMDConfig() md.Config {
	cfg := md.DefaultConfig()
	cfg.L = 5
	return cfg
}

func learnConfig() core.ShardedConfig {
	return core.ShardedConfig{
		Shards: 2, MinTrainSamples: 40, RetrainEvery: learnEvery, UQThreshold: learnGate,
		Retention: core.Retention{Policy: core.RetainWindow, MaxSamples: 256},
	}
}

func learnOracle(i int) *mdOracle {
	return newMDOracle(learnMDConfig(), learnRun, splitmix64(programSeed+uint64(i)))
}

// phaseInput returns the input generator of phase id: tenant choice and
// row are functions of (seed, phase, slot) only, and the slot rides in the
// low mantissa bits of the first feature (see tagRow).
func phaseInput(seed uint64, id int, names []string, hot bool) func(slot int, x []float64) string {
	base := splitmix64(seed ^ uint64(id)<<48)
	return func(slot int, x []float64) string {
		h := splitmix64(base + uint64(slot)*0x9e3779b97f4a7c15)
		tenant := names[h%uint64(len(names))]
		ctr := h
		u := func() float64 { ctr = splitmix64(ctr); return unitFloat(ctr) }
		if hot {
			x[0] = -2 + 4*u()
			x[1] = -1 + 2*u()
		} else {
			mdPoint(x, mdLo[0], mdHi[0], u)
		}
		x[0] = tagRow(x[0], slot)
		return tenant
	}
}

// serveRun is one serving run: its stack, generator and traced phases.
type serveRun struct {
	opt      options
	hot      bool
	st       *stack
	gen      *genProc
	in, out  int
	tr       *tracer
	cur      atomic.Pointer[phase] // the traced phase in progress
	phases   int                   // phase ids handed out
	stacks   int                   // stacks built, naming their registry copies
	drops    int
	oracleOf func(tenant int) core.Oracle
	traced   []*phase
	labels   []string
}

// runPhase runs one open-loop phase at rate for seconds and summarises it
// in windows of the given length.
func (s *serveRun) runPhase(rate, seconds float64, window time.Duration, traced bool) (*phase, phaseStats, error) {
	id := s.phases
	s.phases++
	p := newPhase(rate, seconds, s.out, traced, phaseInput(s.opt.seed, id, s.st.names, s.hot))
	if traced {
		s.cur.Store(p)
	}
	drops, err := s.gen.run(genRequest{
		Addr: s.st.addr, Names: s.st.names, In: s.in, Out: s.out, Seed: s.opt.seed, Hot: s.hot,
		Phase: id, Rate: rate, Seconds: seconds,
	}, p)
	s.cur.Store(nil)
	if err != nil {
		return nil, phaseStats{}, err
	}
	s.drops += drops
	return p, p.stats(latencyLimit, window), nil
}

// link records the batch span serving a tagged row (traced runs).
func (s *serveRun) link(x []float64, batch int32) {
	if p := s.cur.Load(); p != nil {
		if slot := rowTag(x[0]); slot < p.n {
			p.served[slot].Store(batch)
		}
	}
}

// parentOf finds the batch span an oracle run belongs to (traced runs).
func (s *serveRun) parentOf(x []float64) int32 {
	if p := s.cur.Load(); p != nil {
		if slot := rowTag(x[0]); slot < p.n {
			return p.served[slot].Load()
		}
	}
	return -1
}

func runServeHot(opt options, r *report) error {
	dir, err := os.MkdirTemp(filepath.Join(opt.out, "tmp"), "serve-hot-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	prep := filepath.Join(dir, "prep")
	if err := prepareRegistry(prep, hotTenants, func(i int) (*core.ShardedWrapper, *tensor.Matrix) {
		w := core.NewShardedWrapper(hotOracle(i), hotFactory(programSeed), hotConfig())
		design := tensor.NewMatrix(200, 2)
		rng := xrand.New(splitmix64(opt.seed + uint64(i)))
		for k := 0; k < design.Rows; k++ {
			design.Set(k, 0, rng.Range(-2, 2))
			design.Set(k, 1, rng.Range(-1, 1))
		}
		return w, design
	}); err != nil {
		return err
	}
	r.inputs["serve.rates_qps"] = fmt.Sprintf("low=%d mid=%d high=%d", rateLow, rateMid, rateHigh)
	r.inputs["serve.latency_limit"] = latencyLimit.String()
	r.inputs["serve.stack"] = fmt.Sprintf("ResilientClient(%d conns) -> router -> %d workers (netserve.Server + fleet + coalescer + ShardedWrapper)", clientConns, stackWorkers)
	r.inputs["hot.tenants"] = fmt.Sprintf("%d x 2->1 nets, 2 shards, gate %g (always passes)", hotTenants, float64(hotGate))

	s := &serveRun{opt: opt, hot: true, oracleOf: func(i int) core.Oracle { return hotOracle(i) }}
	defer s.stop()
	spec := stackSpec{
		tenants: hotTenants, in: 2, out: 1, probe: []float64{0.5, 0.5},
		newWrapper: func(i int) *core.ShardedWrapper {
			return core.NewShardedWrapper(hotOracle(i), hotFactory(programSeed), hotConfig())
		},
	}
	if !opt.trace {
		setup, err := s.start(spec, dir, prep)
		if err != nil {
			return err
		}
		// The low rate carries the gated latencies, so it runs longest;
		// the capacity search gets the remaining 40%.
		phaseSec := []float64{0.3 * opt.seconds, 0.15 * opt.seconds, 0.15 * opt.seconds}
		var fixed []phaseStats
		var ps []*phase
		for k, rate := range []float64{rateLow, rateMid, rateHigh} {
			p, st, err := s.runPhase(rate, phaseSec[k], phaseWindow, false)
			if err != nil {
				return err
			}
			fixed = append(fixed, st)
			ps = append(ps, p)
		}
		capacity, steps, err := s.capacitySearch(fixed[2], int(0.4*opt.seconds/capacityStep.Seconds()))
		if err != nil {
			return err
		}
		s.endToEnd(r, setup, fixed, ps, []string{"low", "mid", "high"})
		r.set("throughput_qps", capacity, "1/s", steps)
		r.setExtra("max_rate_qps", capacity, "1/s", steps)
		return nil
	}

	// Traced: an untraced reference phase at the low rate, then the
	// three fixed rates traced on a fresh stack.
	if _, err := s.start(spec, dir, prep); err != nil {
		return err
	}
	_, ref, err := s.runPhase(rateLow, opt.seconds/3, phaseWindow, false)
	if err != nil {
		return err
	}
	s.stop()
	s.tr = newTracer(1 << 20)
	spec.tr, spec.link = s.tr, s.link
	if _, err := s.start(spec, dir, prep); err != nil {
		return err
	}
	var lows phaseStats
	for k, rate := range []float64{rateLow, rateMid, rateHigh} {
		p, st, err := s.runPhase(rate, opt.seconds/3, phaseWindow, true)
		if err != nil {
			return err
		}
		s.traced = append(s.traced, p)
		s.labels = append(s.labels, []string{"low", "mid", "high"}[k])
		if k == 0 {
			lows = st
		}
	}
	r.set("trace.overhead_frac", lows.windowed(0.5)/ref.windowed(0.5)-1, "frac", len(lows.lat))
	return s.layers(r)
}

func runServeLearn(opt options, r *report) error {
	dir, err := os.MkdirTemp(filepath.Join(opt.out, "tmp"), "serve-learn-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	prep := filepath.Join(dir, "prep")
	if err := prepareRegistry(prep, learnTenants, func(i int) (*core.ShardedWrapper, *tensor.Matrix) {
		w := core.NewShardedWrapper(learnOracle(i), mdFactory(programSeed, learnEpochs), learnConfig())
		ctr := splitmix64(opt.seed ^ uint64(i+1)<<32)
		u := func() float64 { ctr = splitmix64(ctr); return unitFloat(ctr) }
		design := tensor.NewMatrix(learnPretrain, 5)
		mdDesign(design, mdLo[0], (mdLo[0]+mdHi[0])/2, u)
		return w, design
	}); err != nil {
		return err
	}
	r.inputs["serve.rate_qps"] = learnRate
	r.inputs["serve.stack"] = fmt.Sprintf("ResilientClient(%d conns) -> router -> %d workers (netserve.Server + fleet + coalescer + ShardedWrapper)", clientConns, stackWorkers)
	r.inputs["learn.tenants"] = fmt.Sprintf("%d x 5->3 md surrogates, 2 shards, gate %g, refit every %d samples, warm from h in [%g,%g]", learnTenants, learnGate, learnEvery, mdLo[0], (mdLo[0]+mdHi[0])/2)
	r.inputs["learn.md_run"] = fmt.Sprintf("L=%g equil=%d sample=%d every=%d workers=1", learnMDConfig().L, learnRun.EquilSteps, learnRun.SampleSteps, learnRun.SampleEvery)

	s := &serveRun{opt: opt, oracleOf: func(i int) core.Oracle { return learnOracle(i) }}
	defer s.stop()
	spec := stackSpec{
		tenants: learnTenants, in: 5, out: 3, publish: true, probe: []float64{5, 1, 1, 0.05, 1},
		newWrapper: func(i int) *core.ShardedWrapper {
			o := learnOracle(i)
			if s.tr != nil {
				o.tr, o.parentOf = s.tr, s.parentOf
			}
			return core.NewShardedWrapper(o, mdFactory(programSeed, learnEpochs), learnConfig())
		},
	}
	if !opt.trace {
		setup, err := s.start(spec, dir, prep)
		if err != nil {
			return err
		}
		p, st, err := s.runPhase(learnRate, opt.seconds, phaseWindow, false)
		if err != nil {
			return err
		}
		s.endToEnd(r, setup, []phaseStats{st}, []*phase{p}, []string{"low"})
		r.set("throughput_qps", st.achieved, "1/s", st.ok)
		return nil
	}
	if _, err := s.start(spec, dir, prep); err != nil {
		return err
	}
	_, ref, err := s.runPhase(learnRate, opt.seconds/2, phaseWindow, false)
	if err != nil {
		return err
	}
	s.stop()
	s.tr = newTracer(1 << 20)
	spec.tr, spec.link = s.tr, s.link
	if _, err := s.start(spec, dir, prep); err != nil {
		return err
	}
	p, st, err := s.runPhase(learnRate, opt.seconds/2, phaseWindow, true)
	if err != nil {
		return err
	}
	s.traced, s.labels = []*phase{p}, []string{"low"}
	r.set("trace.overhead_frac", st.windowed(0.5)/ref.windowed(0.5)-1, "frac", len(st.lat))
	return s.layers(r)
}

// prepareRegistry trains every tenant's shards (the untimed step) and
// publishes them as the generation the serving stacks warm-start from.
func prepareRegistry(dir string, tenants int, build func(i int) (*core.ShardedWrapper, *tensor.Matrix)) error {
	reg, err := registry.Open(registry.Config{Dir: dir})
	if err != nil {
		return err
	}
	defer reg.Close()
	for i := 0; i < tenants; i++ {
		w, design := build(i)
		var mu sync.Mutex // the hook fires on concurrent first fits
		var pubErr error
		w.SetPublishHook(registry.Publisher(reg, regKey(i), func(_ int, err error) {
			mu.Lock()
			pubErr = err
			mu.Unlock()
		}))
		if err := w.Pretrain(design); err != nil {
			return fmt.Errorf("preparing tenant %d: %w", i, err)
		}
		if pubErr != nil {
			return fmt.Errorf("preparing tenant %d: %w", i, pubErr)
		}
	}
	return nil
}

// start builds stacks (setupRepeats times, each on a fresh copy of the
// prepared registry) and the generator over the last one; it returns the
// median setup time.
func (s *serveRun) start(spec stackSpec, dir, prep string) (float64, error) {
	var times []float64
	for k := 0; k < setupRepeats; k++ {
		s.stop()
		spec.regDir = filepath.Join(dir, fmt.Sprintf("reg%d", s.stacks))
		s.stacks++
		if err := copyDir(prep, spec.regDir); err != nil {
			return 0, err
		}
		t0 := time.Now()
		st, err := startStack(spec)
		if err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		s.st = st
	}
	s.in, s.out = spec.in, spec.out
	gen, err := startGenProc()
	if err != nil {
		return 0, err
	}
	s.gen = gen
	return median(times), nil
}

// stop closes the generator and the stack; it does nothing once both are
// closed, so runners defer it once and also call it between stacks.
func (s *serveRun) stop() {
	if s.gen != nil {
		if err := s.gen.close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: generator process:", err)
		}
		s.gen = nil
	}
	if s.st != nil {
		s.st.close()
		s.st = nil
	}
}

// capacitySearch finds the highest offered rate whose probe meets the
// limit: in the median probe window at most 1% of requests over
// latencyLimit or failed, no overflow, and an achieved rate of at least
// 0.99 of the offered one. It starts
// from the high fixed-rate phase, grows by half until a probe fails, then
// bisects. It reports the achieved rate of the best passing probe.
func (s *serveRun) capacitySearch(high phaseStats, steps int) (float64, int, error) {
	if steps < 3 {
		steps = 3
	}
	pass := func(st phaseStats) bool {
		return median(st.winMiss) <= 0.01 && st.overflow == 0 && st.achieved >= 0.99*st.rate
	}
	lo, best := 0.0, 0.0
	if pass(high) {
		lo, best = high.rate, high.achieved
	}
	hi := math.Inf(1)
	rate := rateHigh * 1.5
	for k := 0; k < steps; k++ {
		_, st, err := s.runPhase(rate, capacityStep.Seconds(), probeWindow, false)
		if err != nil {
			return 0, 0, err
		}
		if pass(st) {
			lo, best = rate, st.achieved
		} else {
			hi = rate
		}
		if math.IsInf(hi, 1) {
			rate *= 1.5
		} else {
			rate = (lo + hi) / 2
		}
	}
	return best, steps, nil
}

// endToEnd fills the end-to-end metrics shared by both serving workloads
// from the fixed-rate phases (the first is the low rate) and runs the
// answer checks.
func (s *serveRun) endToEnd(r *report, setup float64, fixed []phaseStats, ps []*phase, labels []string) {
	var attempted, failed, ok, sur int
	for k, st := range fixed {
		attempted += st.attempted
		failed += st.failed
		ok += st.ok
		sur += st.surrogate
		r.setExtra("p50_us."+labels[k], st.windowed(0.5)/1e3, "us", len(st.lat))
		r.setExtra("p90_us."+labels[k], st.windowed(0.9)/1e3, "us", len(st.lat))
		r.setExtra("p99_us."+labels[k], st.windowed(0.99)/1e3, "us", len(st.lat))
		r.setExtra("achieved_qps."+labels[k], st.achieved, "1/s", st.ok)
		r.setExtra("gen.late_us.p50."+labels[k], quantile(st.late, 0.5)/1e3, "us", len(st.late))
		r.setExtra("gen.late_us.p99."+labels[k], quantile(st.late, 0.99)/1e3, "us", len(st.late))
	}
	low := fixed[0]
	r.attempted, r.failed = int64(attempted), int64(failed)
	r.set("setup_s", setup, "s", setupRepeats)
	r.set("latency_us", low.windowed(0.5)/1e3, "us", len(low.lat))
	r.set("surrogate_frac", float64(sur)/math.Max(1, float64(ok)), "frac", ok)
	r.set("served_frac", 1-float64(failed)/float64(attempted), "frac", attempted)
	r.setExtra("fail_frac", float64(failed)/float64(attempted), "frac", attempted)
	rmse, n := s.checkAnswers(r, ps)
	r.set("answer_rmse", rmse, "nrmse", n)
}

// checkAnswers waits for refits still running, runs the shared
// correctness checks and returns the normalised RMSE of the sampled
// answers against the oracle.
func (s *serveRun) checkAnswers(r *report, ps []*phase) (float64, int) {
	for _, w := range s.st.wrappers {
		if err := w.Wait(); err != nil {
			r.fail("refit failed: %v", err)
		}
	}
	if s.drops > 0 {
		r.fail("%d requests neither answered nor failed (silent drop)", s.drops)
	}
	if q := s.st.reg.Stats().Quarantines; q > 0 {
		r.fail("registry quarantined %d artifacts", q)
	}
	s.st.pubMu.Lock()
	if s.st.pubErrs > 0 {
		r.fail("%d registry publishes failed", s.st.pubErrs)
	}
	s.st.pubMu.Unlock()
	index := map[string]int{}
	for i, name := range s.st.names {
		index[name] = i
	}
	var got, want [][]float64
	in, _ := s.st.wrappers[0].Dims()
	x := make([]float64, in)
	for _, p := range ps {
		if n := p.nonfinite.Load(); n > 0 {
			r.fail("%d answers hold NaN or Inf", n)
		}
		for k := range p.answers {
			slot := k * p.stride
			if p.status[slot] != slotOK {
				continue
			}
			tenant := p.input(slot, x)
			y, err := s.oracleOf(index[tenant]).Run(x)
			if err != nil {
				r.fail("reference oracle: %v", err)
				return math.NaN(), 0
			}
			if !p.fromSurrogate[slot] && !equalRows(p.answers[k], y) {
				r.fail("oracle-served answer %v differs from the oracle's %v", p.answers[k], y)
			}
			got = append(got, append([]float64(nil), p.answers[k]...))
			want = append(want, y)
		}
	}
	rmse := nrmse(got, want)
	if rmse > answerTolerance {
		r.fail("answer_rmse %.3f exceeds tolerance %.2f", rmse, answerTolerance)
	}
	return rmse, len(got)
}

// layers fills the per-layer metrics of a traced serving run from the
// traced phases' per-request records, the spans and the layers' own
// counters, and writes the spans out.
func (s *serveRun) layers(r *report) error {
	st := s.st
	s.checkAnswers(r, s.traced)
	var attempted, failed int
	spans := s.tr.recorded()
	cover := mdCover(spans)

	var call []float64
	var wire, coreT, mdT float64
	var nReq int
	for k, p := range s.traced {
		ps := p.stats(latencyLimit, phaseWindow)
		attempted += ps.attempted
		failed += ps.failed
		r.set("gen.late_us.p50."+s.labels[k], quantile(ps.late, 0.5)/1e3, "us", len(ps.late))
		r.set("gen.late_us.p99."+s.labels[k], quantile(ps.late, 0.99)/1e3, "us", len(ps.late))
		off := int64(p.epoch.Sub(s.tr.epoch))
		for i := 0; i < p.n; i++ {
			if p.status[i] != slotOK {
				continue
			}
			send, done := p.sendNs[i]+off, p.doneNs[i]+off
			d := float64(done - send)
			call = append(call, d)
			nReq++
			b := p.served[i].Load()
			if b < 0 {
				wire += d
				continue
			}
			bs := spans[b]
			ov := float64(max(0, min(done, bs.end)-max(send, bs.start)))
			wire += d - ov
			if bd := float64(bs.end - bs.start); bd > 0 {
				mdShare := float64(cover[b]) / bd
				mdT += ov * mdShare
				coreT += ov * (1 - mdShare)
			}
		}
	}
	r.attempted, r.failed = int64(attempted), int64(failed)
	nr := math.Max(1, float64(nReq))
	r.set("self_us.wire", wire/1e3/nr, "us", nReq)
	r.set("self_us.core", coreT/1e3/nr, "us", nReq)
	r.set("self_us.md", mdT/1e3/nr, "us", nReq)
	r.set("netserve.call_us.p50", quantile(call, 0.5)/1e3, "us", len(call))
	r.set("netserve.call_us.p99", quantile(call, 0.99)/1e3, "us", len(call))

	spanLayers(r, spans, cover, 1)

	rs := st.rt.Stats()
	r.set("router.frames_per_burst", float64(rs.Frames)/math.Max(1, float64(rs.Bursts)), "count", int(rs.Bursts))
	r.set("router.retries", float64(rs.Retries), "count", 1)
	r.set("router.drops", float64(rs.Drops), "count", 1)
	var resp, flushes int64
	for _, srv := range st.servers {
		ss := srv.Stats()
		resp += ss.Responses
		flushes += ss.Flushes
	}
	r.set("netserve.resp_per_flush", float64(resp)/math.Max(1, float64(flushes)), "count", int(flushes))
	r.set("netserve.client_retries", float64(s.gen.clientRetries), "count", 1)
	var queries, batches, shed int64
	for _, f := range st.fleets {
		for _, ts := range f.Stats() {
			queries += ts.Queries
			batches += ts.Batches
			shed += ts.Rejected + ts.Expired
		}
	}
	r.set("fleet.mean_batch", float64(queries)/math.Max(1, float64(batches)), "count", int(batches))
	r.set("fleet.shed", float64(shed), "count", 1)

	var ledgers []core.Ledger
	stale := 0
	for _, w := range st.wrappers {
		ledgers = append(ledgers, w.Ledger())
		for _, ss := range w.Status() {
			stale += ss.Stale
		}
	}
	ledgerLayers(r, ledgers, 1)
	r.set("core.staleness_end", float64(stale), "count", len(st.wrappers))

	r.set("registry.warm_ms", median(durationsMs(st.warm)), "ms", len(st.warm))
	st.pubMu.Lock()
	pubs := append([]float64(nil), st.pubTimes...)
	st.pubMu.Unlock()
	r.set("registry.publishes", float64(len(pubs)), "count", 1)
	if len(pubs) > 0 {
		r.set("registry.publish_ms.p50", quantile(pubs, 0.5), "ms", len(pubs))
		r.set("registry.publish_ms.p99", quantile(pubs, 0.99), "ms", len(pubs))
	}
	r.set("registry.quarantines", float64(st.reg.Stats().Quarantines), "count", 1)
	r.set("trace.spans", float64(len(spans)+nReq), "count", 1)
	r.set("trace.dropped", float64(s.tr.dropped.Load()), "count", 1)

	path, err := writeSpans(s.opt, s.tr, s.writeRequests)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	r.inputs["trace.file"] = path
	return nil
}

// writeRequests appends one netserve.query span per answered request of
// the traced phases, with the core.batch span that served it.
func (s *serveRun) writeRequests(w *bufio.Writer, nextID int) {
	id := nextID
	for _, p := range s.traced {
		off := int64(p.epoch.Sub(s.tr.epoch))
		for i := 0; i < p.n; i++ {
			if p.status[i] != slotOK {
				continue
			}
			fmt.Fprintf(w, "%d,netserve.query,%.3f,%.3f,-1,%d\n", id,
				float64(p.sendNs[i]+off)/1e3, float64(p.doneNs[i]+off)/1e3, p.served[i].Load())
			id++
		}
	}
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// copyDir copies the regular files of src into a new directory dst, one
// level of subdirectories deep (a registry: one directory per name).
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		from, to := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			if err := copyDir(from, to); err != nil {
				return err
			}
			continue
		}
		if err := copyFile(from, to); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
