package main

import (
	"context"
	"fmt"

	"aheft/internal/server"
)

// Fixed work of the closed loops, per client and per second of -seconds:
// live workflows, and shared-grid rounds of two workflows each. Sized so
// a run lasts about -seconds on a 2-core box; a faster daemon finishes
// the same work sooner.
const (
	liveWorkflowsPerClientSecond = 8
	sharedRoundsPerClientSecond  = 5
)

// endToEnd lists the end-to-end metrics every -trace 0 run prints, with
// their units.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"submit_ms_p50", "ms"},
	{"submit_ms_tail", "ms"},
	{"ack_ms_p50", "ms"},
	{"ack_ms_tail", "ms"},
	{"wf_per_s", "wf/s"},
	{"daemon_cpu_ms_per_wf", "ms"},
	{"daemon_rss_mb", "MB"},
	{"makespan_ratio", "ratio"},
}

// closedRun is one measured closed-loop phase against one daemon.
type closedRun struct {
	res              *closedResult
	daemonMs, genMs  float64
	rssMB            float64
	before, after    server.MetricsDoc
	submit, ack      []stamped
	accept           []float64
	refused, failedC int
	calls            int
	quiet            quietness
}

// measureClosed runs the fixed closed-loop work against d and collects
// what the clients and the daemon measured.
func (r *run) measureClosed(ctx context.Context, d *daemon, shared, capture bool) (*closedRun, error) {
	per := liveWorkflowsPerClientSecond * r.seconds
	if shared {
		per = sharedRoundsPerClientSecond * r.seconds
	}
	p := closedParams{shared: shared, clients: clients, perClnt: per, seed: r.seed, capture: capture}
	m0, err := d.metrics()
	if err != nil {
		return nil, err
	}
	w, err := openWindow(d.pid())
	if err != nil {
		return nil, err
	}
	mon := startStealMonitor()
	res, err := runClosed(ctx, d.base, p)
	quiet := mon.finish()
	if err != nil {
		return nil, err
	}
	r.noteQuiet(r.workload+" phase", quiet)
	cr := &closedRun{res: res, quiet: quiet}
	if cr.daemonMs, cr.genMs, err = w.close(); err != nil {
		return nil, err
	}
	if cr.rssMB, err = procHWMmb(d.pid()); err != nil {
		return nil, err
	}
	m1, err := d.metrics()
	if err != nil {
		return nil, err
	}
	cr.before, cr.after = m0, m1
	for _, tt := range res.transports {
		cr.submit = append(cr.submit, tt.submitMs...)
		cr.accept = append(cr.accept, tt.acceptMs...)
		cr.ack = append(cr.ack, tt.ackMs...)
		cr.refused += tt.refused
		cr.failedC += tt.failed
		cr.calls += tt.calls
	}
	return cr, nil
}

// closed runs the live or shared workload.
func (r *run) closed(ctx context.Context, shared bool) error {
	if !r.trace {
		if err := r.timeSetup(); err != nil {
			return err
		}
	}
	d, err := r.spawn()
	if err != nil {
		return err
	}
	defer d.stop()
	cr, err := r.measureClosed(ctx, d, shared, r.trace)
	if err != nil {
		return err
	}
	if err := r.finalGates(d); err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}
	res := cr.res
	for _, e := range res.gateErrs {
		r.gate("%s", e)
	}
	if res.workflows == 0 {
		return fmt.Errorf("no workflow completed")
	}
	reports := len(cr.ack)
	r.phase(r.workload+"-requests", cr.calls, cr.calls-cr.refused-cr.failedC, cr.refused+cr.failedC)
	r.note("window %.2fs: %d workflows done, %d shared-grid rounds, %d report batches", res.wall.Seconds(), res.workflows, res.rounds, reports)
	if !r.trace {
		if err := r.timeSetup(); err != nil {
			return err
		}
		r.set("setup_s", quantile(r.setupS, 0.5), "s")
		// Both clients are busy from the start until the first of them
		// finishes its share: throughput is taken over that span.
		end := res.clientEnd[0]
		for _, t := range res.clientEnd[1:] {
			if t.Before(end) {
				end = t
			}
		}
		r.timing("submit_ms", cr.quiet.quiet(cr.submit))
		r.timing("ack_ms", cr.quiet.quiet(cr.ack))
		r.set("wf_per_s", cr.quiet.rate(res.doneAt, res.t0, end), "wf/s")
		r.set("daemon_cpu_ms_per_wf", cr.daemonMs/float64(res.workflows), "ms")
		r.set("daemon_rss_mb", cr.rssMB, "MB")
		r.set("makespan_ratio", res.adaptive/res.baseline, "ratio")
		return nil
	}
	return r.closedLayers(ctx, shared, cr)
}

// timing sets name_p50, the median of the samples, and name_tail, their
// windowed tail, and notes how many samples the tail was taken over.
func (r *run) timing(name string, xs []stamped) {
	r.set(name+"_p50", quantile(values(xs), 0.5), "ms")
	tail, n := windowedTail(xs)
	r.set(name+"_tail", tail, "ms")
	if n < len(xs) {
		r.note("%s_tail is the median over %d windows of each window's p%g (n=%d per window, %d in all)", name, len(xs)/n, tailQ*100, n, len(xs))
	} else {
		r.note("%s_tail is p%g of n=%d", name, tailQ*100, n)
	}
}

// noteQuiet records how much of a phase the latency and throughput
// figures were taken over.
func (r *run) noteQuiet(phase string, q quietness) {
	kept, all, steal := q.summary()
	r.note("%s: %.1f%% of the machine's CPU stolen by the hypervisor; %d of %d half-second intervals quiet", phase, steal, kept, all)
}
