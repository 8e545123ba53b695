package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"time"

	"aheft/internal/server"
)

// stages are the daemon's span stages; obs.stage_ms_p50.<stage> reads
// each from a -trace daemon's /metrics trace_stage_ms.
var stages = []string{"intake", "queue", "plan", "ingest", "evaluate", "adopt", "enact"}

// walDrift is how far apart the replay's and the daemon's WAL bytes per
// workflow may be. The records match field for field; what differs is
// timing values (queue and compute milliseconds, replan timings) and
// LSNs, whose digit counts vary: a few parts in a thousand.
const walDrift = 0.01

// modules are the layers the replay's self time is split into: a span
// named "<module>.<Call>" is charged to its module.
var modules = []string{"wire", "data", "planner", "feedback", "durable"}

// layerMetrics lists every per-layer metric with its unit, in print
// order. Every workload prints all of them; a layer a workload does not
// load reads 0.
func layerMetrics() [][2]string {
	m := [][2]string{
		{"wire.decode_submission_us_p50", "us"},
		{"wire.decode_submission_allocs", "count"},
		{"wire.submission_kb", "KB"},
		{"wire.decode_report_us_p50", "us"},
		{"data.new_model_us_p50", "us"},
		{"admission.wait_ms_p99", "ms"},
		{"admission.refused_frac", "ratio"},
		{"server.accept_ms_p50", "ms"},
		{"server.submit_ms_tail_all", "ms"},
		{"server.ack_ms_tail_all", "ms"},
		{"server.events_per_wf", "count"},
		{"planner.run_policy_ms_p50", "ms"},
		{"planner.adopt_share", "ratio"},
		{"kernel.static_ms_p50", "ms"},
		{"kernel.rank_ms_p50", "ms"},
		{"kernel.place_ms_p50", "ms"},
		{"kernel.delta_share", "ratio"},
		{"kernel.fallback_drift_share", "ratio"},
		{"kernel.fallback_cone_share", "ratio"},
		{"feedback.new_ms_p50", "ms"},
		{"feedback.apply_us_p50", "us"},
		{"feedback.apply_us_tail", "us"},
		{"feedback.evals_per_report", "count"},
		{"feedback.adopt_share", "ratio"},
		{"occupancy.contention_evals_per_round", "count"},
		{"occupancy.leaked", "count"},
		{"durable.wal_bytes_per_report", "B"},
		{"durable.wal_bytes_per_wf", "B"},
		{"durable.append_us_p50", "us"},
		{"durable.append_us_tail", "us"},
		{"obs.trace_overhead_frac", "ratio"},
	}
	for _, s := range stages {
		m = append(m, [2]string{"obs.stage_ms_p50." + s, "ms"})
	}
	m = append(m,
		[2]string{"runtime.gc_cpu_frac", "ratio"},
		[2]string{"runtime.alloc_kb_per_wf", "KB"},
		[2]string{"gen.late_ms_tail", "ms"},
		[2]string{"gen.max_rate_wfps", "wf/s"},
		[2]string{"gen.cpu_ms_per_wf", "ms"},
	)
	for _, mod := range modules {
		m = append(m, [2]string{"replay.self_ms_per_wf." + mod, "ms"})
	}
	return append(m, [2]string{"replay.coverage", "ratio"})
}

// measured is what an untraced phase measured, shared by both
// workload kinds when the per-layer table is assembled.
type measured struct {
	workflows, rounds int
	daemonMs, genMs   float64
	submissions       int
	refused           int
	acceptMs          []float64
	lateMs            []float64
	leaked            int
	maxRate           float64 // intake: the ramp's highest passing rate
	before, after     server.MetricsDoc
	// Every submit and ack latency of the phase, with no quiet-interval
	// filter and no window median: their tails show what the bounded
	// end-to-end tails smooth away (a WAL append waiting out an fsync).
	submitAll, ackAll []float64
}

// layers fills the per-layer table from the untraced phase m, the
// traced phase's daemon (CPU per workflow and /metrics) and the replay.
func (r *run) layers(m measured, tracedCPUPerWf float64, traced server.MetricsDoc, rp *replay) error {
	for _, lm := range layerMetrics() {
		r.set(lm[0], 0, lm[1])
	}
	wf := float64(m.workflows)
	us := func(xs []float64) float64 { return quantile(xs, 0.5) * 1000 }
	spans := rp.tr.spans
	self := selfTimes(spans)

	// wire
	r.set("wire.decode_submission_us_p50", us(byName(spans, nil, "wire.DecodeSubmission")), "us")
	r.set("wire.decode_submission_allocs", quantile(rp.decodeAllocs, 0.5), "count")
	r.set("wire.submission_kb", mean(rp.subKB), "KB")
	r.set("wire.decode_report_us_p50", us(byName(spans, nil, "wire.DecodeReport")), "us")
	// data
	r.set("data.new_model_us_p50", us(byName(spans, nil, "data.NewModel")), "us")
	// admission and server, from the untraced daemon and its clients
	r.set("admission.wait_ms_p99", m.after.Admission.WaitMs.P99, "ms")
	if m.submissions > 0 {
		r.set("admission.refused_frac", float64(m.refused)/float64(m.submissions+m.refused), "ratio")
	}
	r.set("server.accept_ms_p50", quantile(m.acceptMs, 0.5), "ms")
	r.ruleTail("server.submit_ms_tail_all", "ms", m.submitAll, 1)
	r.ruleTail("server.ack_ms_tail_all", "ms", m.ackAll, 1)
	r.set("server.events_per_wf", float64(m.after.EventsEmitted-m.before.EventsEmitted)/wf, "count")
	// planner
	r.set("planner.run_policy_ms_p50", quantile(byName(spans, nil, "planner.RunPolicyObserved"), 0.5), "ms")
	if rp.runDecisions > 0 {
		r.set("planner.adopt_share", float64(rp.runAdopted)/float64(rp.runDecisions), "ratio")
	}
	// kernel: the bare static plan and the replans' phase split from the
	// replay; the incremental-path split from the untraced daemon.
	r.set("kernel.static_ms_p50", quantile(rp.staticMs, 0.5), "ms")
	r.set("kernel.rank_ms_p50", quantile(rp.rankMs, 0.5), "ms")
	r.set("kernel.place_ms_p50", quantile(rp.placeMs, 0.5), "ms")
	delta := float64(m.after.ReschedulesDelta - m.before.ReschedulesDelta)
	full := float64(m.after.ReschedulesFullFallback - m.before.ReschedulesFullFallback)
	if delta+full > 0 {
		r.set("kernel.delta_share", delta/(delta+full), "ratio")
	}
	if full > 0 {
		reason := func(k string) float64 {
			return float64(m.after.ReschedulesFullFallbackByReason[k] - m.before.ReschedulesFullFallbackByReason[k])
		}
		r.set("kernel.fallback_drift_share", reason("estimates-drifted")/full, "ratio")
		r.set("kernel.fallback_cone_share", reason("cone-overflow")/full, "ratio")
	}
	// feedback
	r.set("feedback.new_ms_p50", quantile(byName(spans, nil, "feedback.New"), 0.5), "ms")
	if apply := byName(spans, nil, "feedback.Tracker.Apply"); len(apply) > 0 {
		r.set("feedback.apply_us_p50", quantile(apply, 0.5)*1000, "us")
		r.ruleTail("feedback.apply_us_tail", "us", apply, 1000)
	}
	if rp.reports > 0 {
		r.set("feedback.evals_per_report", float64(rp.applyDecisions)/float64(rp.reports), "count")
	}
	if rp.applyDecisions > 0 {
		r.set("feedback.adopt_share", float64(rp.applyAdopted)/float64(rp.applyDecisions), "ratio")
	}
	// occupancy
	if m.rounds > 0 {
		c := m.after.RescheduleMs["contention"].Count - m.before.RescheduleMs["contention"].Count
		r.set("occupancy.contention_evals_per_round", float64(c)/float64(m.rounds), "count")
	}
	leaked := m.leaked + m.after.Reservations + m.after.TransferReservations
	r.set("occupancy.leaked", float64(leaked), "count")
	if leaked != 0 {
		r.gate("%d reservations leaked", leaked)
	}
	// durable
	walBytes := float64(m.after.WALBytes - m.before.WALBytes)
	if reports := m.after.Reports - m.before.Reports; reports > 0 {
		r.set("durable.wal_bytes_per_report", walBytes/float64(reports), "B")
	}
	r.set("durable.wal_bytes_per_wf", walBytes/wf, "B")
	appends := byName(spans, nil, "durable.Shard.Append")
	r.set("durable.append_us_p50", us(appends), "us")
	r.ruleTail("durable.append_us_tail", "us", appends, 1000)
	// The replay journals what the daemon journals, so their bytes per
	// workflow agree; a drift means the replay no longer times the
	// daemon's records.
	_, replayBytes, _ := rp.wal.Counters()
	daemonPerWf, replayPerWf := walBytes/wf, float64(replayBytes)/float64(rp.workflows)
	r.note("WAL bytes per workflow: daemon %.0f, replay %.0f", daemonPerWf, replayPerWf)
	if math.Abs(replayPerWf/daemonPerWf-1) > walDrift {
		r.gate("replay journals %.0f B per workflow, the daemon %.0f B (more than %.0f%% apart)", replayPerWf, daemonPerWf, walDrift*100)
	}
	// obs
	untracedCPUPerWf := m.daemonMs / wf
	r.set("obs.trace_overhead_frac", tracedCPUPerWf/untracedCPUPerWf-1, "ratio")
	for _, s := range stages {
		r.set("obs.stage_ms_p50."+s, traced.TraceStageMs[s].P50, "ms")
	}
	// runtime, generator
	r.set("runtime.gc_cpu_frac", rp.gcFrac, "ratio")
	r.set("runtime.alloc_kb_per_wf", rp.allocKBPerWf, "KB")
	if len(m.lateMs) > 0 {
		r.ruleTail("gen.late_ms_tail", "ms", m.lateMs, 1)
	}
	r.set("gen.cpu_ms_per_wf", m.genMs/wf, "ms")
	r.set("gen.max_rate_wfps", m.maxRate, "wf/s")
	// replay: self time per layer, and how much of the daemon's CPU per
	// workflow the layers account for (the rest is HTTP, scheduling, GC
	// of the daemon's own garbage).
	perMod := map[string]float64{}
	total := 0.0
	for _, s := range spans {
		mod, _, ok := strings.Cut(s.Name, ".")
		if !ok {
			continue // a root span: replay glue, not daemon work
		}
		v := ms(self[s.ID])
		perMod[mod] += v
		total += v
	}
	rwf := float64(rp.workflows)
	for _, mod := range modules {
		r.set("replay.self_ms_per_wf."+mod, perMod[mod]/rwf, "ms")
	}
	r.set("replay.coverage", total/rwf/untracedCPUPerWf, "ratio")
	path := filepath.Join(r.work, fmt.Sprintf("spans-%s-seed%d.ndjson", r.workload, r.seed))
	if err := rp.tr.write(path); err != nil {
		return err
	}
	r.note("%d spans written to %s", len(spans), path)
	return nil
}

// ruleTail sets name to the tail of xs (scaled) at the highest
// percentile with at least minBeyond samples beyond it, and notes which
// percentile that was.
func (r *run) ruleTail(name, unit string, xs []float64, scale float64) {
	t := summarize(xs)
	r.set(name, t.Tail*scale, unit)
	r.note("%s is p%g of n=%d", name, t.TailQ*100, t.N)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// intakeLayers runs the traced phase of the intake workload (the same
// fixed-rate inputs against a -trace daemon) and the in-process replay,
// then assembles the per-layer table.
func (r *run) intakeLayers(fixed []intakeBody, untraced *openResult, m measured) error {
	d, err := startDaemon(r.daemonBin, r.work, true)
	if err != nil {
		return err
	}
	defer d.stop()
	w, err := openWindow(d.pid())
	if err != nil {
		return err
	}
	o := openPhase(d.base, fixed, intakeRate, 0)
	tracedMs, _, err := w.close()
	if err != nil {
		return err
	}
	tm, err := d.metrics()
	if err != nil {
		return err
	}
	done := 0
	for _, s := range o.samples {
		if !s.Failed {
			done++
		}
	}
	r.phase("intake-traced", len(fixed), done, len(fixed)-done)
	if err := d.stop(); err != nil {
		return err
	}
	rp, err := newReplay(r.work)
	if err != nil {
		return err
	}
	defer rp.close()
	if err := rp.intake(fixed, untraced.ids, untraced.shards); err != nil {
		return err
	}
	return r.layers(m, tracedMs/float64(done), tm, rp)
}

// closedLayers does the same for live and shared: the untraced phase
// captured every request body; the fixed work runs again against a
// -trace daemon, and the captured inputs are replayed in-process.
func (r *run) closedLayers(ctx context.Context, shared bool, cr *closedRun) error {
	d, err := startDaemon(r.daemonBin, r.work, true)
	if err != nil {
		return err
	}
	defer d.stop()
	tcr, err := r.measureClosed(ctx, d, shared, false)
	if err != nil {
		return err
	}
	r.phase(r.workload+"-traced", tcr.calls, tcr.calls-tcr.refused-tcr.failedC, tcr.refused+tcr.failedC)
	if err := d.stop(); err != nil {
		return err
	}
	caps := make([][]captured, len(cr.res.transports))
	for i, tt := range cr.res.transports {
		caps[i] = tt.bodies
	}
	rp, err := newReplay(r.work)
	if err != nil {
		return err
	}
	defer rp.close()
	t0 := time.Now()
	if err := rp.closed(caps); err != nil {
		return err
	}
	r.note("replay of %d workflows, %d reports took %.2fs", rp.workflows, rp.reports, time.Since(t0).Seconds())
	return r.layers(measured{
		workflows: cr.res.workflows, rounds: cr.res.rounds,
		daemonMs: cr.daemonMs, genMs: cr.genMs,
		submissions: len(cr.accept), refused: cr.refused, acceptMs: cr.accept,
		leaked: cr.res.leaked, before: cr.before, after: cr.after,
		submitAll: values(cr.submit), ackAll: values(cr.ack),
	}, tcr.daemonMs/float64(tcr.res.workflows), tcr.after, rp)
}
