package main

import (
	"math"

	"repro/internal/core"
)

// layerMetrics lists every per-layer metric a traced run reports, with
// its unit. A workload that bypasses a layer reports that layer's metrics
// as 0, so every traced run prints the same names (BENCHMARK.json lists
// the same set).
var layerMetrics = []struct{ name, unit string }{
	{"router.frames_per_burst", "count"},
	{"router.retries", "count"},
	{"router.drops", "count"},
	{"netserve.call_us.p50", "us"},
	{"netserve.call_us.p99", "us"},
	{"netserve.resp_per_flush", "count"},
	{"netserve.client_retries", "count"},
	{"fleet.mean_batch", "count"},
	{"fleet.shed", "count"},
	{"core.batch_us.p50", "us"},
	{"core.batch_us.p99", "us"},
	{"core.lookup_ns_per_row", "ns"},
	{"core.gate_pass_frac", "frac"},
	{"core.refits", "count"},
	{"core.refit_ms.mean", "ms"},
	{"core.staleness_end", "count"},
	{"core.effective_speedup", "x"},
	{"oracle.runs", "count"},
	{"oracle.ms.mean", "ms"},
	{"oracle.ms.p99", "ms"},
	{"oracle.busy_s", "s"},
	{"oracle.overlap", "x"},
	{"registry.warm_ms", "ms"},
	{"registry.publishes", "count"},
	{"registry.publish_ms.p50", "ms"},
	{"registry.publish_ms.p99", "ms"},
	{"registry.quarantines", "count"},
	{"gen.late_us.p50.low", "us"},
	{"gen.late_us.p99.low", "us"},
	{"gen.late_us.p50.mid", "us"},
	{"gen.late_us.p99.mid", "us"},
	{"gen.late_us.p50.high", "us"},
	{"gen.late_us.p99.high", "us"},
	{"self_us.wire", "us"},
	{"self_us.core", "us"},
	{"self_us.md", "us"},
	{"self_us.wait", "us"},
	{"trace.overhead_frac", "frac"},
	{"trace.spans", "count"},
	{"trace.dropped", "count"},
}

// fillLayers reports every per-layer metric the workload did not measure
// as 0 — the layer was bypassed.
func fillLayers(r *report) {
	for _, m := range layerMetrics {
		if _, ok := r.metrics[m.name]; !ok {
			r.set(m.name, 0, m.unit, 0)
		}
	}
}

// spanLayers reports the core.batch and md.run span figures. Counts and
// busy time are divided by per (the number of campaigns on sweep, 1 on
// the serving workloads); md.run spans without a batch (pretraining, set-up
// queries) are left out.
func spanLayers(r *report, spans []span, cover map[int32]int64, per float64) {
	var batchUs, oracleMs []float64
	var busy, fan float64
	for i, s := range spans {
		d := float64(s.end - s.start)
		switch s.kind {
		case spanBatch:
			batchUs = append(batchUs, d/1e3)
			fan += float64(cover[int32(i)])
		case spanOracle:
			if s.parent >= 0 {
				oracleMs = append(oracleMs, d/1e6)
				busy += d
			}
		}
	}
	r.set("core.batch_us.p50", quantile(batchUs, 0.5), "us", len(batchUs))
	r.set("core.batch_us.p99", quantile(batchUs, 0.99), "us", len(batchUs))
	if len(oracleMs) > 0 {
		r.set("oracle.runs", float64(len(oracleMs))/per, "count", len(oracleMs))
		r.set("oracle.ms.mean", mean(oracleMs), "ms", len(oracleMs))
		r.set("oracle.ms.p99", quantile(oracleMs, 0.99), "ms", len(oracleMs))
		r.set("oracle.busy_s", busy/1e9/per, "s", len(oracleMs))
		r.set("oracle.overlap", busy/math.Max(1, fan), "x", len(oracleMs))
	}
}

// ledgerLayers reports the wrappers' summed ledgers; the refit count is
// divided by per as in spanLayers.
func ledgerLayers(r *report, ls []core.Ledger, per float64) {
	var led core.Ledger
	for _, l := range ls {
		led.NLookup += l.NLookup
		led.LookupTime += l.LookupTime
		led.NRejected += l.NRejected
		led.RejectedTime += l.RejectedTime
		led.NTrain += l.NTrain
		led.SimTime += l.SimTime
		led.NTrainingRuns += l.NTrainingRuns
		led.LearnTime += l.LearnTime
		led.LearnSamples += l.LearnSamples
	}
	attempts := led.NLookup + led.NRejected
	r.set("core.lookup_ns_per_row", float64(led.LookupTime+led.RejectedTime)/math.Max(1, float64(attempts)), "ns", attempts)
	r.set("core.gate_pass_frac", float64(led.NLookup)/math.Max(1, float64(attempts)), "frac", attempts)
	r.set("core.refits", float64(led.NTrainingRuns)/per, "count", led.NTrainingRuns)
	if led.NTrainingRuns > 0 {
		r.set("core.refit_ms.mean", led.LearnTime.Seconds()*1e3/float64(led.NTrainingRuns), "ms", led.NTrainingRuns)
	}
	if led.NTrain > 0 {
		r.set("core.effective_speedup", led.EffectiveSpeedup(1), "x", led.NLookup+led.NTrain)
	}
}
